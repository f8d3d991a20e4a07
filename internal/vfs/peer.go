package vfs

import (
	"strings"

	"dircache/internal/coherence"
	"dircache/internal/telemetry"
)

// Sharded coherence: a kernel that is one shard of a sharded namespace
// publishes each path its own operations falsify to its coherence log —
// no caller publishes anything (DESIGN §8 lists what each operation
// publishes) — and applies the records its peers publish.
//
// Applying a record (paper §3.2): a permission change bumps sequence
// numbers and re-reads the directory's attributes, the dentries below it
// stay; a structural change — or any record this instance cannot apply in
// place — discards the cached view of the path wholesale, fail-closed, and
// the next walk re-reads ground truth from the shared backend.

// EnableCoherence makes the kernel a shard: from here on its namespace
// operations publish to its coherence log (the coh field). Idempotent.
func (k *Kernel) EnableCoherence() {
	if k.coh.Load() == nil {
		k.coh.CompareAndSwap(nil, coherence.New())
	}
}

// Coherence returns the coherence log: nil until EnableCoherence.
func (k *Kernel) Coherence() *coherence.Log { return k.coh.Load() }

// publish appends the path of name under d (d's own path when name is
// "") to the coherence log of a shard, for a change no open bracket names;
// a no-op on any other kernel. Callers publish once the backend call has
// succeeded, for the reason Mutation.End gives.
func (k *Kernel) publish(d *Dentry, name, note string) {
	if log := k.coh.Load(); log != nil {
		log.Append(coherence.Record{Path: d.pathWith(name), Note: note})
	}
}

// RootDentry returns the root dentry of the kernel's initial namespace.
func (k *Kernel) RootDentry() *Dentry {
	return k.initNS.root.sb.root
}

// splitAbs splits a canonical absolute path into components ("/" → nil).
func splitAbs(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

// InvalidateCachedPath applies a peer-originated coherence record: path,
// and note naming what the peer's kernel did to it (an Invalidation's
// String, "create" or "rename-dst"). The descent to path reads
// cached dentries only, because a path this instance never cached cannot
// be stale here:
//
//   - full path cached: one beginMutation bracket on its dentry — epoch
//     bump, seq bump and range mark, so every PCC entry at or below it is
//     revoked. A "perm" record on a positive dentry is applied as the local
//     Chmod applies it (InvalRemotePerm): the mark is of the permission
//     class, so the DLHT entries at and below the dentry stay, the inode's
//     attributes are re-read from the backend (one GetNode, the only
//     backend I/O here) and nothing is evicted. Every other note, a
//     negative dentry, and an inode the backend no longer knows take the
//     teardown under an InvalRemote bracket: the subtree is killed under
//     the rename write lock and the parent loses DIR_COMPLETE (its child
//     set changed remotely).
//   - parent cached but the final component is not: the parent's
//     completeness and cached listing are dropped — a remotely created
//     binding may now exist that an authoritative listing would miss.
//   - an earlier component is not cached: no local state covers the
//     path; nothing to do.
//
// Returns the number of dentries torn down.
func (k *Kernel) InvalidateCachedPath(path, note string) int {
	d := k.RootDentry()
	rest := strings.Trim(path, "/")
	if rest == "" {
		// "/": the peer mutated the root itself. Kill every cached child
		// subtree and drop root completeness.
		end := k.beginMutation(d, InvalRemote)
		defer end.End()
		unlock := k.lockBig()
		defer unlock()
		k.renameWriteLock()
		defer k.renameWriteUnlock()
		k.cacheMutBegin()
		defer k.cacheMutEnd()
		n := 0
		d.EachChild(func(c *Dentry) { n += k.killSubtreeLocked(c) })
		k.dropCompleteness(d)
		return n
	}
	for rest != "" {
		var comp string
		comp, rest, _ = strings.Cut(rest, "/")
		child := d.child(comp)
		if child == nil || child.IsDead() {
			if rest == "" {
				// The binding itself is not cached but its parent is:
				// the parent's listing/completeness may now be wrong.
				k.invalidateRemoteBinding(d)
			}
			return 0
		}
		d = child
	}
	parent := d.Parent()
	if note == InvalPerm.String() && !d.IsNegative() && k.applyRemotePerm(d) {
		return 0
	}
	end := k.beginMutation(d, InvalRemote)
	defer end.End()
	unlock := k.lockBig()
	defer unlock()
	k.renameWriteLock()
	defer k.renameWriteUnlock()
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	if d.IsDead() {
		return 0
	}
	n := k.killSubtreeLocked(d)
	if parent != nil {
		k.dropCompleteness(parent)
	}
	return n
}

// applyRemotePerm applies a peer's permission change to the positive
// dentry d in place, in a bracket of its own: false when the backend no
// longer knows the inode, and the caller's teardown bracket follows.
func (k *Kernel) applyRemotePerm(d *Dentry) bool {
	end := k.beginMutation(d, InvalRemotePerm)
	defer end.End()
	unlock := k.lockBig()
	defer unlock()
	return k.refreshInode(d)
}

// invalidateRemoteBinding handles the "parent cached, binding not" case:
// the parent directory's authoritative listing claim is dropped so the
// next readdir/miss goes back to the backend.
func (k *Kernel) invalidateRemoteBinding(parent *Dentry) {
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	k.dropCompleteness(parent)
}

// dropCompleteness clears DIR_COMPLETE and the cached listing on d,
// journaling the transition when the flag was actually set.
func (k *Kernel) dropCompleteness(d *Dentry) {
	wasComplete := d.Flags()&DComplete != 0
	d.clearFlags(DComplete)
	d.invalidateList()
	if wasComplete {
		if tel := k.Telemetry(); tel != nil {
			tel.Emit(telemetry.JDirIncomplete, d.ID(), 0, telemetry.NoteRemote)
		}
	}
}

// CachedPathState classifies what this instance's cache currently claims
// about a path, without touching the backend. The cross-shard auditor uses
// it to compare each shard's cached claim against ground truth: a MISS is
// never stale (the next walk consults the backend), but a positive or
// negative claim that contradicts the backend after coherence has
// converged is a stale read.
type CachedPathState int

const (
	// CachedMiss: some component of the path is not cached; the cache
	// holds no claim about the path.
	CachedMiss CachedPathState = iota
	// CachedPositive: the full path is cached with a live inode.
	CachedPositive
	// CachedNegative: the path is cached as known-absent (a negative
	// dentry), or its parent is DIR_COMPLETE without the binding — both
	// authorize an ENOENT answer without consulting the backend.
	CachedNegative
)

// CachedPathClaim reports the cache's current claim about path (see
// CachedPathState). The probe is read-only and lock-light; racing
// mutations may yield a transient claim, so callers quiesce first.
func (k *Kernel) CachedPathClaim(path string) CachedPathState {
	comps := splitAbs(path)
	d := k.RootDentry()
	for i, c := range comps {
		child := d.child(c)
		if child == nil || child.IsDead() {
			if i == len(comps)-1 && d.Flags()&DComplete != 0 && !d.IsDead() {
				// Complete parent without the binding: the cache would
				// answer ENOENT authoritatively.
				return CachedNegative
			}
			return CachedMiss
		}
		d = child
	}
	if d.IsNegative() {
		return CachedNegative
	}
	if d.Inode() == nil {
		return CachedMiss
	}
	return CachedPositive
}
