// Package vfs implements the virtual file system layer: dentries, inodes,
// mounts and namespaces, permission checking (DAC + LSM), the baseline
// Linux-style directory cache with a component-at-a-time walk, negative
// dentries, an LRU shrinker, and the full path-based operation surface.
//
// The paper's optimizations plug in through two seams:
//
//   - Config feature flags enable the VFS-level hit-rate optimizations
//     (§5): directory completeness caching and aggressive negative
//     dentries.
//   - The Hooks interface (nine methods) lets internal/core install the §3
//     fastpath (DLHT + PCC + signatures), coherence callbacks, symlink
//     aliasing and deep negative dentries. The VFS declares the fastpath's
//     per-dentry state (FastDentry, embedded in every Dentry as the paper
//     embeds struct fast_dentry) but touches only the DLHT's chains in it,
//     and owns its per-namespace state: each Namespace's DLHT is a Table
//     the kernel creates with the namespace. The algorithms and their
//     invariants live in internal/core.
package vfs

import (
	"sync"
	"sync/atomic"

	"dircache/internal/fsapi"
	"dircache/internal/slab"
)

// DentryFlags describe a dentry's cache state. Flags are manipulated
// atomically so the lock-free (RCU-era) read path can validate them.
type DentryFlags uint32

const (
	// DNegative: the name is known not to exist (negative dentry).
	DNegative DentryFlags = 1 << iota
	// DUnhydrated: created from a readdir result; existence and type are
	// known but the inode has not been fetched (paper §5.1: "dentries
	// without an inode").
	DUnhydrated
	// DComplete: all children of this directory are in the cache (§5.1).
	DComplete
	// DMounted: some namespace has a mount on this dentry (check the
	// mount table when crossing).
	DMounted
	// DAlias: a symlink-alias dentry created by the fastpath (§4.2); its
	// Target redirects to the real dentry.
	DAlias
	// DDeepNegative: a negative dentry synthesized under another negative
	// dentry or under a file (§5.2).
	DDeepNegative
	// DNotDir: this (deep) negative dentry represents an ENOTDIR failure
	// rather than ENOENT (§5.2).
	DNotDir
	// DDead: evicted/unlinked; lock-free readers must discard it.
	DDead
	// DInLookup: a placeholder installed in the parent's child map while
	// the first missing walk's backend Lookup is in flight. Concurrent
	// misses on the same (parent, name) block on its resolution instead
	// of issuing duplicate FS calls (the d_in_lookup singleflight).
	// In-lookup dentries are invisible everywhere else: never in the
	// hash table, never in the LRU, skipped by readdir snapshots and
	// audits. The flag is cleared (under the parent's lock) when the
	// winner resolves the placeholder positive or negative.
	DInLookup
	// DInLRU: the dentry is a cache member — counted in Len(), visible to
	// ForEachDentry and the auditor, a candidate for the shrinker's hand.
	// Set by lruList.add, cleared by remove or by the shrinker's claim.
	DInLRU
	// DReferenced: used since the shrinker's hand last passed (Linux's
	// DCACHE_REFERENCED). The hand clears it and moves on; it evicts only a
	// dentry it finds without it.
	DReferenced
	// DQueued: queued for the sweeper, once even if two kills reach it.
	DQueued
)

// parentName is the atomically-swapped (parent, name) pair, so the
// lock-free walk can read a consistent identity while a rename is moving
// the dentry.
type parentName struct {
	parent *Dentry
	name   string
}

// Dentry is one directory cache entry: a (parent, name) → inode binding,
// possibly negative. Exported methods that read identity or flags are safe
// without locks; structural changes happen inside the VFS under d.mu.
type Dentry struct {
	id uint64

	// self is the dentry's own slab reference: the generation-tagged
	// handle under which hash-table chains and fastpath state refer to
	// it. Set at allocation, immutable until the slot is
	// recycled.
	self slab.Ref

	pn    atomic.Pointer[parentName]
	flags atomic.Uint32

	// hlink chains the dentry through the (parent, name) table, and hkey
	// is the name hash it was filed under: the word a probe filters on.
	hlink Link
	hkey  atomic.Uint64

	inode atomic.Pointer[Inode]
	sb    *Super

	// hint fields let an unhydrated dentry be hydrated with GetNode
	// instead of a directory search.
	hintID   fsapi.NodeID
	hintType fsapi.FileType

	// target of a DAlias dentry: the real dentry this alias redirects
	// to, stored as a packed slab.Ref so a recycled target slot
	// self-invalidates instead of redirecting to the new tenant.
	target atomic.Uint64

	// linkBody caches a symlink's target string after first read.
	linkBody atomic.Pointer[string]

	mu       sync.Mutex
	children map[string]*Dentry
	nkids    atomic.Int32 // cached len(children): pins against eviction

	// completeList caches the directory's rendered listing while the
	// dentry is DComplete and no child has changed — the dirent buffer a
	// repeated readdir copies out of (§5.1). Guarded by mu.
	completeList []fsapi.DirEntry
	listValid    bool

	refs atomic.Int32 // open files, cwd/root references

	// inLookup is the singleflight rendezvous while DInLookup is set:
	// waiters block on done, then read the outcome the winner stored.
	// Written under the parent's mu; read by waiters after done closes.
	inLookup *inLookupState

	// fast is the fastpath's per-dentry state (the paper's struct
	// fast_dentry). It sits last, after the dentry's own words, not beside
	// flags and inode: measured on warm_stat, that placement read 1-2%
	// slower at the median (DESIGN §5g).
	fast FastDentry
}

// inLookupState carries one in-flight miss resolution. The winner closes
// done exactly once after storing err; waiters must not touch err before
// done is closed.
type inLookupState struct {
	done chan struct{}
	err  error // nil = positive; fsapi.ENOENT = negative; else backend error
}

// ID returns the dentry's unique, never-reused identity (the analogue of
// the kernel dentry's virtual address as a stable token).
func (d *Dentry) ID() uint64 { return d.id }

// Name returns the dentry's current component name.
func (d *Dentry) Name() string { return d.pn.Load().name }

// Parent returns the dentry's current parent (nil for a superblock root).
func (d *Dentry) Parent() *Dentry { return d.pn.Load().parent }

// Flags returns the current flag set.
func (d *Dentry) Flags() DentryFlags { return DentryFlags(d.flags.Load()) }

func (d *Dentry) setFlags(f DentryFlags)   { d.flags.Or(uint32(f)) }
func (d *Dentry) clearFlags(f DentryFlags) { d.flags.And(^uint32(f)) }

// MarkReferenced records a use of d for the shrinker: every cache hit calls
// it, the slow walk's and the fastpath's alike. The flag is tested before
// it is set, so a hit on an already-referenced dentry — every hit but the
// first after the hand went by — writes nothing to the dentry's line.
func (d *Dentry) MarkReferenced() {
	if d.Flags()&DReferenced == 0 {
		d.setFlags(DReferenced)
	}
}

// IsNegative reports whether the dentry is negative (including deep).
func (d *Dentry) IsNegative() bool { return d.Flags()&DNegative != 0 }

// IsDead reports whether the dentry has been evicted or killed.
func (d *Dentry) IsDead() bool { return d.Flags()&DDead != 0 }

// Inode returns the attached inode, or nil for negative/unhydrated
// dentries.
func (d *Dentry) Inode() *Inode { return d.inode.Load() }

// Super returns the superblock owning this dentry.
func (d *Dentry) Super() *Super { return d.sb }

// SelfRef returns the dentry's own generation-tagged slab reference.
// Resolving it through the kernel fails once the dentry's slot has been
// retired, which is how long-lived holders (fastpath resume points,
// alias targets) detect recycling.
func (d *Dentry) SelfRef() slab.Ref { return d.self }

// Target returns the alias redirect target for DAlias dentries, or nil
// when the target's slab slot has been retired or recycled since the
// alias was created.
func (d *Dentry) Target() *Dentry {
	return d.sb.k.DentryFromRef(slab.Unpack(d.target.Load()))
}

// setTarget points the alias redirect at t.
func (d *Dentry) setTarget(t *Dentry) { d.target.Store(t.self.Pack()) }

// Fast returns the dentry's fastpath state, which the installed Hooks own.
func (d *Dentry) Fast() *FastDentry { return &d.fast }

// Ref pins the dentry against eviction.
func (d *Dentry) Ref() { d.refs.Add(1) }

// Unref releases a pin.
func (d *Dentry) Unref() { d.refs.Add(-1) }

// IsDir reports whether the dentry currently refers to a directory
// (unhydrated dentries answer from their readdir type hint).
func (d *Dentry) IsDir() bool {
	if ino := d.Inode(); ino != nil {
		return ino.Mode().IsDir()
	}
	return d.Flags()&DUnhydrated != 0 && d.hintType == fsapi.TypeDirectory
}

// IsSymlink reports whether the dentry currently refers to a symlink.
func (d *Dentry) IsSymlink() bool {
	if ino := d.Inode(); ino != nil {
		return ino.Mode().IsSymlink()
	}
	return d.Flags()&DUnhydrated != 0 && d.hintType == fsapi.TypeSymlink
}

// EachChild calls fn for every cached child (including negatives, aliases
// and deep negatives) under d.mu. fn must not re-enter the dentry tree.
func (d *Dentry) EachChild(fn func(*Dentry)) {
	d.mu.Lock()
	kids := make([]*Dentry, 0, len(d.children))
	for _, c := range d.children {
		kids = append(kids, c)
	}
	d.mu.Unlock()
	for _, c := range kids {
		fn(c)
	}
}

// Child returns the cached child dentry by name (including negatives and
// aliases), or nil. Exported for the fastpath hooks.
func (d *Dentry) Child(name string) *Dentry { return d.child(name) }

// ChildCount returns the number of cached children. Exported so the
// fastpath hooks can pick between per-dentry and batched invalidation.
func (d *Dentry) ChildCount() int { return int(d.nkids.Load()) }

// child returns the cached child by name, under d.mu.
func (d *Dentry) child(name string) *Dentry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.children[name]
}

// completeWithout reports whether d can answer authoritatively that it
// has no child called name (§5.1): DIR_COMPLETE is set and the child map
// has no entry. Both are read under d.mu, which orders them against the
// flag's writers — readdir installs every listed child before setting
// it, eviction clears it before detaching the child — so a probe that
// merely missed the hash table never takes a half-populated or
// just-evicted directory's word for it.
func (d *Dentry) completeWithout(name string) bool {
	if d.Flags()&DComplete == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.children[name] == nil && d.Flags()&DComplete != 0
}

// linkChildLocked is the one place a dentry enters a child map. The caller
// holds d.mu and has dealt with any live incumbent at name. It refuses a
// dead parent: every kill sets DDead before it enumerates children under
// d.mu, so an insert either lands in that enumeration or sees the flag
// here — never a live child under a dead parent, which nothing would
// reach or tear down.
func (d *Dentry) linkChildLocked(name string, c *Dentry) bool {
	if d.IsDead() {
		return false
	}
	if d.children == nil {
		d.children = make(map[string]*Dentry, 4)
	}
	d.children[name] = c // may replace a dead incumbent not yet detached
	d.nkids.Store(int32(len(d.children)))
	d.listValid = false
	return true
}

// attachChild links c under d (c's pn must already point at d), reporting
// false when d is dead, and returns the live dentry it displaced for the
// caller to kill. Looking under the same hold of d.mu as linking is the
// point: a walk's placeholder installed in between would be overwritten.
func (d *Dentry) attachChild(c *Dentry) (displaced *Dentry, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev := d.children[c.Name()]; prev != c && prev != nil && !prev.IsDead() {
		displaced = prev
	}
	if !d.linkChildLocked(c.Name(), c) {
		return nil, false
	}
	return displaced, true
}

// detachChild unlinks c from d's children map. A dead c may already have
// been replaced at its name by a fresh install, which stays.
func (d *Dentry) detachChild(name string, c *Dentry) {
	d.mu.Lock()
	if d.children[name] == c {
		delete(d.children, name)
		d.nkids.Add(-1)
	}
	d.listValid = false
	d.mu.Unlock()
}

// invalidateList drops the cached listing (child set or a child's
// identity changed).
func (d *Dentry) invalidateList() {
	d.mu.Lock()
	d.listValid = false
	d.mu.Unlock()
}

// reset reinitializes a freshly allocated (possibly recycled) arena slot
// for a new tenant; the fast state is the Hooks' to reset (NewDentry).
// The chain links need none: a slot is retired only unlinked, and a link
// or tag word is read only once an insert has written it.
// Every other field is restored to its zero state explicitly rather than
// by struct assignment: the embedded mutex must not be copied over, and
// stale contents from the previous tenant (flags, link body, child map)
// must not leak into the new identity. Callers publish
// no reference to the dentry before reset returns, so plain stores are
// safe; the atomics are reset with atomic stores anyway because stale
// in-flight readers from the previous tenant's grace period may still
// load them (and discard the result via the generation check).
func (d *Dentry) reset(id uint64, self slab.Ref, sb *Super) {
	d.id = id
	d.self = self
	d.pn.Store(nil)
	d.flags.Store(0)
	d.inode.Store(nil)
	d.sb = sb
	d.hintID = 0
	d.hintType = 0
	d.target.Store(0)
	d.linkBody.Store(nil)
	d.children = nil
	d.nkids.Store(0)
	d.completeList = nil
	d.listValid = false
	d.refs.Store(0)
	d.inLookup = nil
}

// PathTo renders the dentry's path from the superblock root ("/" rooted at
// this dentry's sb), for diagnostics and signature (re)construction. It is
// not canonical across mounts; callers that need a namespace path must
// compose mounts themselves.
func (d *Dentry) PathTo() string { return d.pathWith("") }

// pathWith is PathTo with name, unless empty, appended as one more
// component: the path of a binding under d.
func (d *Dentry) pathWith(name string) string {
	var comps []string
	n := 0
	if name != "" {
		comps, n = append(comps, name), len(name)+1
	}
	for cur := d; cur != nil; {
		pn := cur.pn.Load()
		if pn.parent == nil {
			break
		}
		comps = append(comps, pn.name)
		n += len(pn.name) + 1
		cur = pn.parent
	}
	if len(comps) == 0 {
		return "/"
	}
	buf := make([]byte, 0, n)
	for i := len(comps) - 1; i >= 0; i-- {
		buf = append(buf, '/')
		buf = append(buf, comps[i]...)
	}
	return string(buf)
}
