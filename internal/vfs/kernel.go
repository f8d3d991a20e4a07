package vfs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dircache/internal/coherence"
	"dircache/internal/fsapi"
	"dircache/internal/lsm"
	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/telemetry"
)

// Config selects the directory cache behaviour. The zero value is the
// stock Linux 3.14 baseline ("unmodified kernel"); feature flags turn on
// the paper's optimizations individually, which the ablation benchmarks
// exploit.
type Config struct {
	// SyncMode selects the hash table synchronization era (Figure 2).
	SyncMode SyncMode

	// CacheCapacity bounds the number of cached dentries; 0 = unlimited.
	// When the cache exceeds it, cold leaf dentries are evicted.
	CacheCapacity int

	// DirCompleteness enables §5.1: DIR_COMPLETE tracking, readdir served
	// from the cache, authoritative misses, and creation without an
	// existence lookup.
	DirCompleteness bool

	// AggressiveNegatives enables §5.2: keep negative dentries after
	// unlink/rename, and cache negatives on pseudo file systems.
	AggressiveNegatives bool

	// PhaseTrace enables per-walk phase timing (Figure 3). Costs a few
	// timestamps per lookup; leave off except when measuring.
	PhaseTrace bool
}

// Invalidation tells hooks why a subtree invalidation is happening.
type Invalidation int

const (
	// InvalRename: the dentry (and its subtree) is moving to a new path.
	InvalRename Invalidation = iota
	// InvalPerm: a directory's permission-relevant metadata changed.
	InvalPerm
	// InvalUnlink: the dentry is being unlinked/rmdired (subtree = alias
	// or deep-negative children).
	InvalUnlink
	// InvalMount: a mount or unmount is changing resolution under the
	// dentry.
	InvalMount
	// InvalRemote: a peer cache instance (another shard of the namespace)
	// reported a mutation under the dentry; the local view is discarded
	// wholesale rather than replayed.
	InvalRemote
	// InvalRemotePerm: a peer reported a permission change on the dentry
	// and it is applied in place, as InvalPerm is; like InvalRemote it
	// never re-enters the coherence log.
	InvalRemotePerm
)

var invalNotes = [...]telemetry.Note{
	InvalRename:     telemetry.NoteRename,
	InvalPerm:       telemetry.NotePerm,
	InvalUnlink:     telemetry.NoteUnlink,
	InvalMount:      telemetry.NoteMount,
	InvalRemote:     telemetry.NoteRemote,
	InvalRemotePerm: telemetry.NoteRemote,
}

// Note is the invalidation reason as the journal stores it.
func (i Invalidation) Note() telemetry.Note {
	if uint(i) < uint(len(invalNotes)) {
		return invalNotes[i]
	}
	return telemetry.NoteUnknown
}

// String names the invalidation reason (journal, coherence-record and
// histogram labels).
func (i Invalidation) String() string { return i.Note().String() }

// PermOnly reports whether the mutation changes what a prefix check
// through the dentry decides and nothing else: every cached path at or
// below it still names the same dentry (§3.2).
func (i Invalidation) PermOnly() bool { return i == InvalPerm || i == InvalRemotePerm }

// Remote reports whether the mutation is a peer's, applied here.
func (i Invalidation) Remote() bool { return i == InvalRemote || i == InvalRemotePerm }

// Mutation is the open bracket BeginMutation returns — a value, so opening
// one allocates nothing. The zero Mutation ends as a no-op.
type Mutation struct {
	Hooks Hooks
	D     *Dentry
	Why   Invalidation
	// log and path: on a shard, its coherence log and D's path as the
	// kernel read it when the bracket opened, which End publishes.
	log  *coherence.Log
	path string
}

// End closes the bracket: call it when the change is complete. On a shard
// it then publishes the mutated path, and only then: a peer that applied
// the record any earlier could re-read the backend's old state and cache
// it for good.
func (m Mutation) End() {
	if m.Hooks != nil {
		m.Hooks.EndMutation(m)
	}
	if m.log != nil {
		m.log.Append(coherence.Record{Path: m.path, Note: m.Why.String()})
	}
}

// Hooks is the seam through which internal/core installs the paper's §3/§4
// fastpath, in nine methods. The DLHTs it fills belong to the kernel
// (Namespace.DLHT) and chain through the dentries they hold. All methods
// must be safe for concurrent use. A nil Hooks means the unmodified baseline.
type Hooks interface {
	// NewDentry is called once per new tenant of a dentry slot, before the
	// dentry is reachable, to initialize its Fast() state.
	NewDentry(d *Dentry)

	// TryFast attempts a whole-path lookup from start. handled=false
	// falls back to the slow walk. When handled, res/err are the final
	// outcome (err may be ENOENT from a negative hit). tr is the walk's
	// sampled telemetry trace — nil on almost every call — to which the
	// hooks append their probe events.
	TryFast(t *Task, start PathRef, path string, fl WalkFlags, tr *telemetry.WalkTrace) (res PathRef, err error, handled bool)

	// BeginSlow returns an invalidation-epoch token before a slow walk.
	BeginSlow() uint64

	// EndSlowLookup is called after a successful slow walk so the hooks
	// can populate the DLHT and PCC (unless the token went stale).
	// lexical is the dentry the path's canonical lexical form denotes:
	// usually res itself, but the symlink dentry when the final component
	// was a followed link, or the alias dentry when the final component
	// resolved under a symlink prefix (§4.2).
	EndSlowLookup(token uint64, t *Task, start PathRef, path string, lexical, res PathRef)

	// EndSlowNegative is called after a slow walk failed with ENOENT or
	// ENOTDIR so the hooks can install deep negative dentries (§5.2).
	EndSlowNegative(token uint64, t *Task, start PathRef, path string, f *WalkFailure)

	// AliasStep is called while the slow walk resolves components that
	// followed a symlink: aliasParent is the symlink (or previous alias)
	// dentry with its mount, name the component, real the resolved
	// location. It returns the alias dentry to chain from, or nil to stop
	// aliasing (§4.2).
	AliasStep(t *Task, aliasParent PathRef, name string, real PathRef) *Dentry

	// BeginMutation is called before a structural or permission change
	// rooted at d; the caller Ends the returned bracket when the change is
	// complete, which calls EndMutation. Hooks bump their invalidation
	// epoch on both edges and shoot down cached state under d.
	BeginMutation(d *Dentry, why Invalidation) Mutation
	EndMutation(m Mutation)

	// OnEvict is called when a dentry leaves the cache (LRU eviction or
	// final unlink teardown), for the hooks to drop what they keep for it:
	// its DLHT entry must be unlinked by the time it returns, because the
	// sweeper that later retires the slot calls none, and refuses to
	// retire a slot still linked.
	OnEvict(d *Dentry)
}

// Kernel owns the entire VFS state: the dentry cache, mount namespaces,
// LSM stack, and configuration.
type Kernel struct {
	cfg   Config
	table *hashTable
	lru   lruList
	lsm   lsm.Stack

	// gate is the epoch clock of the kernel's slab arena. Every exported
	// operation that may touch arena-backed objects runs inside one
	// Enter/Exit section.
	gate *slab.Gate

	// dentries is the dentry slab arena: the cache's bulk storage, and
	// both tables' chain links.
	dentries *slab.Arena[Dentry]

	// dlhts lists every namespace's DLHT, oldest first, for the hooks'
	// statistics, audits and sweeps. A kernel without hooks creates none.
	dlhtMu sync.Mutex
	dlhts  []*Table

	// limbo is the lazy-teardown work queue: dentries killed by
	// unlink/rmdir/rename/eviction whose hash-table removal and slot
	// retirement are deferred off the mutation's critical path. The
	// sweeper (reapSome / ReclaimAll) drains it in batches.
	limboMu   sync.Mutex
	limbo     []slab.Ref
	limboHead int
	limboLen  atomic.Int64
	swept     atomic.Uint64 // cumulative dentries processed by the sweeper
	reapTick  atomic.Uint64 // mutation-tail counter pacing the reclaim pass

	hooks Hooks

	// big is the 2.6.36-era global dcache lock (SyncBigLock only).
	big sync.Mutex

	// renameRW is the ref-walk fallback lock; renameSeq is the global
	// rename seqcount validated by optimistic walks.
	renameRW  sync.RWMutex
	renameSeq atomic.Uint64

	idGen  atomic.Uint64 // dentries, mounts, namespaces, supers
	stats  stripedStats
	initNS *Namespace

	// supers deduplicates superblocks so mounting the same FS instance
	// twice aliases one dentry tree (§4.3 mount aliases).
	supersMu sync.Mutex
	supers   map[fsapi.FileSystem]*Super

	// aliasEpoch counts events that create path aliases (bind mounts,
	// namespace clones). While zero, every dentry has exactly one
	// canonical path and hooks may assume a single view.
	aliasEpoch atomic.Uint64

	// phases receives per-walk PhaseTimes when Config.PhaseTrace is set.
	phases func(PhaseTimes)

	// tel is the attached telemetry subsystem, nil when observability is
	// off. The walk hot path pays exactly one atomic load and branch on
	// it; enabling/disabling at runtime attaches/detaches the pointer.
	tel atomic.Pointer[telemetry.Telemetry]

	// cacheMut is the cache-structure stamp the invariant auditor
	// validates its passes against: every multi-step structural change to
	// the dentry cache runs inside a cacheMutBegin/cacheMutEnd bracket, and
	// the word counts the brackets' edges and those in flight. A pass that
	// reads the same quiescent word on both edges observed no concurrent
	// structural change. See introspect.go. (Audit-only fields sit at the
	// struct tail, off the walk path's cache lines.)
	cacheMut atomic.Uint64

	// chrootCount counts Chroot calls; while zero every task's root is the
	// initial namespace root, which lets the auditor re-verify PCC prefix
	// checks against the global root (see internal/audit).
	chrootCount atomic.Uint64

	// inLookupCount gauges how many in-lookup placeholders currently
	// exist. Introspection needs a dedicated counter because placeholders
	// are deliberately invisible to the LRU-based dentry iteration.
	inLookupCount atomic.Int64

	// coh, when set, is the coherence log peer shards read (DESIGN §8):
	// every namespace operation that falsifies a path's cached answer
	// publishes the path there once its backend call is done. Nil unless
	// the kernel is a shard: PathTo walks the parent chain and allocates,
	// a cost only sharded deployments should pay.
	coh atomic.Pointer[coherence.Log]
}

// InLookupCount reports how many in-lookup placeholders currently exist.
func (k *Kernel) InLookupCount() int64 { return k.inLookupCount.Load() }

// SetTelemetry attaches (or, with nil, detaches) the telemetry subsystem.
// Safe to call at any time, including while walks are in flight: an
// in-flight walk finishes against whichever instance it loaded at entry.
func (k *Kernel) SetTelemetry(t *telemetry.Telemetry) { k.tel.Store(t) }

// Telemetry returns the attached telemetry subsystem, or nil.
func (k *Kernel) Telemetry() *telemetry.Telemetry { return k.tel.Load() }

// AliasingEpoch reports how many alias-creating events (bind mounts,
// namespace clones) have occurred; zero means single-view paths.
func (k *Kernel) AliasingEpoch() uint64 { return k.aliasEpoch.Load() }

// NewKernel creates a kernel whose root file system is rootFS.
func NewKernel(cfg Config, rootFS fsapi.FileSystem) *Kernel {
	k := &Kernel{cfg: cfg, supers: make(map[fsapi.FileSystem]*Super)}
	k.gate = slab.NewGate()
	k.dentries = slab.New[Dentry](k.gate, slab.Options{})
	k.table = newHashTable(cfg.SyncMode, k)
	k.lru.arena = k.dentries
	k.lru.tel = &k.tel

	sb := k.superFor(rootFS)
	rootMount := &Mount{id: k.idGen.Add(1), sb: sb, root: sb.root}
	ns := &Namespace{id: k.idGen.Add(1), mounts: make(map[mkey]*Mount), root: rootMount}
	k.initNS = ns
	return k
}

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// SetHooks installs the fastpath hooks. Must be called before any tasks
// run: the first installation initializes the fast state of the one dentry
// allocated without hooks, the root, and gives the initial namespace its
// DLHT. A later call (a test putting a delegating Hooks in front of the
// installed one) leaves both alone.
func (k *Kernel) SetHooks(h Hooks) {
	if k.hooks == nil && h != nil {
		h.NewDentry(k.initNS.root.sb.root)
		k.initNS.dlht = k.newDLHT()
	}
	k.hooks = h
}

// newDLHT creates a namespace's direct lookup hash table, which stops
// growing at the 2^16 buckets its signatures' index can address.
func (k *Kernel) newDLHT() *Table {
	t := newTable(k, true, 1<<sig.IndexBits)
	k.dlhtMu.Lock()
	k.dlhts = append(k.dlhts, t)
	k.dlhtMu.Unlock()
	return t
}

// DLHTs returns every namespace's DLHT, oldest first.
func (k *Kernel) DLHTs() []*Table {
	k.dlhtMu.Lock()
	defer k.dlhtMu.Unlock()
	return append([]*Table(nil), k.dlhts...)
}

// Hooks returns the installed hooks (nil for baseline).
func (k *Kernel) Hooks() Hooks { return k.hooks }

// LSM returns the kernel's security module stack for registration.
func (k *Kernel) LSM() *lsm.Stack { return &k.lsm }

// DentryCount returns the number of cached dentries.
func (k *Kernel) DentryCount() int { return k.lru.Len() }

// EvictionEpoch exposes the LRU eviction epoch (§5.1 bookkeeping).
func (k *Kernel) EvictionEpoch() uint64 { return k.lru.Epoch() }

// ChainStats reports hash bucket utilization (empty/1/2/3+ chains).
func (k *Kernel) ChainStats() (empty, one, two, more int) {
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	s := k.table.Shape()
	return s.Buckets - s.UsedBuckets, s.Chain1, s.Chain2, s.ChainLonger
}

// superFor returns the superblock for fs, creating one on first mount.
// Re-mounting the same instance shares the dentry tree (mount aliasing).
func (k *Kernel) superFor(fs fsapi.FileSystem) *Super {
	k.supersMu.Lock()
	defer k.supersMu.Unlock()
	if sb, ok := k.supers[fs]; ok {
		return sb
	}
	sb := k.newSuper(fs)
	k.supers[fs] = sb
	return sb
}

// newSuper wraps a low-level FS in a superblock with a root dentry.
func (k *Kernel) newSuper(fs fsapi.FileSystem) *Super {
	sb := &Super{
		id:     k.idGen.Add(1),
		k:      k,
		fs:     fs,
		caps:   fs.StatFS().Caps,
		icache: make(map[fsapi.NodeID]*Inode),
	}
	rootInfo := fs.Root()
	root := k.allocDentry(sb, nil, "", sb.inodeFor(rootInfo))
	sb.root = root
	return sb
}

// newDentry carves a dentry out of the slab arena and resets it for its
// new identity — the one place a dentry is initialized, its fast state
// included. The ID is fresh (never reused) even when the slot is
// recycled — identity-keyed state (PCC entries, journal refs) therefore
// never aliases across tenants; only the slab generation distinguishes
// slot tenants. Does not register anywhere: callers publish.
func (k *Kernel) newDentry(sb *Super, parent *Dentry, name string) *Dentry {
	ref, d := k.dentries.Alloc()
	d.reset(k.idGen.Add(1), ref, sb)
	d.pn.Store(&parentName{parent: parent, name: name})
	if k.hooks != nil {
		k.hooks.NewDentry(d)
	}
	return d
}

// allocDentry creates a dentry (positive if ino != nil) and registers it
// with the LRU. It does NOT insert into the hash table or the parent's
// child map — callers do, under the proper locks.
func (k *Kernel) allocDentry(sb *Super, parent *Dentry, name string, ino *Inode) *Dentry {
	d := k.newDentry(sb, parent, name)
	if ino != nil {
		d.inode.Store(ino) // unpublished: d takes over inodeFor's name
	} else {
		d.setFlags(DNegative)
	}
	k.lru.add(d)
	return d
}

// retireLater queues a killed dentry's ref for the sweeper, once per
// tenant, and gives back its inode's name. The dentry must already be
// dead, detached from its parent's child map, out of the LRU and out of
// every DLHT; what remains — the (parent, name) chain unlink and the
// slot's retire — is batched off the mutation path.
func (k *Kernel) retireLater(d *Dentry) {
	d.mu.Lock()
	queued := DentryFlags(d.flags.Or(uint32(DQueued)))&DQueued != 0
	ino := d.inode.Load()
	d.mu.Unlock()
	if queued {
		return
	}
	ino.put()
	k.limboMu.Lock()
	k.limbo = append(k.limbo, d.self)
	k.limboMu.Unlock()
	k.limboLen.Add(1)
}

// reapBatch is how many limbo records one sweep pass processes, and the
// queue depth past which mutation ops trigger a pass on their way out.
const reapBatch = 256

// reapStride is how many mutation tails pass between reclaim passes.
// Sweeping stays threshold-driven (limbo depth), but the free-list
// replenishment pass — an epoch nudge and the arena's lock — is paced so
// a burst of unlinks pays it 1/32nd of the time with proportionally
// larger batches, not on every operation.
const reapStride = 32

// reapSome opportunistically drains the teardown queue and, every
// reapStride calls, returns reclaimed slots to the arenas' free-lists.
// Called at the tail of mutation operations and of Shrink.
func (k *Kernel) reapSome() {
	if k.limboLen.Load() >= reapBatch {
		k.sweepLimbo(2 * reapBatch)
	}
	if k.reapTick.Add(1)%reapStride == 0 {
		k.reclaimArenas()
	}
}

// reclaimArenas returns grace-elapsed slots to the arena's free-list.
// It only makes progress outside epoch sections: a caller's own section
// pins the epoch clock one step short of the slots it just retired.
func (k *Kernel) reclaimArenas() {
	k.dentries.Reclaim(reapStride * reapBatch)
}

// leaveSection exits the epoch section a walk or create-type operation
// entered at ep and, when the LRU eviction epoch moved since evictions was
// read at entry, reclaims. An eviction inside the section (maybeShrink on
// a miss or an install) retired slots whose grace period neither Shrink's
// reclaim nor a nested walk's can clear while the section is open; a
// read-only or create-only evicting workload has no mutation tail to do
// it later, so it happens here, right after the section closes.
func (k *Kernel) leaveSection(ep, evictions uint64) {
	k.gate.Exit(ep)
	if k.lru.Epoch() != evictions {
		k.reclaimArenas()
	}
}

// sweepLimbo processes up to max deferred-teardown records: the (parent,
// name) chain unlink, then the slot's retirement — fast state included —
// into the arena's limbo. A record is its tenant's only one, so its slot is
// still the tenant's (or retired by InjectPrematureFree, and still
// unlinked); one still in a DLHT chain stays dead and chained (DESIGN §5c).
func (k *Kernel) sweepLimbo(max int) int {
	n := 0
	for n < max {
		k.limboMu.Lock()
		if k.limboHead >= len(k.limbo) {
			k.limbo = k.limbo[:0]
			k.limboHead = 0
			k.limboMu.Unlock()
			break
		}
		ref := k.limbo[k.limboHead]
		k.limboHead++
		if k.limboHead > 4096 && k.limboHead == len(k.limbo) {
			k.limbo = k.limbo[:0]
			k.limboHead = 0
		}
		k.limboMu.Unlock()
		n++
		if g := k.dentries.GenOf(ref.H); g != ref.G && g != ref.G+1 {
			continue // recycled since an injected early retire
		}
		d := k.dentries.Get(ref.H)
		k.table.Remove(d)
		if !d.fast.Link.InChain() {
			k.dentries.Retire(ref)
		}
	}
	if n > 0 {
		k.limboLen.Add(int64(-n))
		k.swept.Add(uint64(n))
	}
	return n
}

// ReclaimAll synchronously drains the entire teardown queue and recycles
// every grace-elapsed slot — the "sync(2)" of the lazy reclaim path,
// used by tests, the auditor's pre-pass, and DropCaches. Safe (but
// pointless) to call inside an epoch section: slots retired under a
// pinned epoch simply wait for the next call.
func (k *Kernel) ReclaimAll() {
	for k.sweepLimbo(1<<20) > 0 {
	}
	// Three advances guarantee any slot retired before the call clears
	// its two-epoch grace period, provided no reader section is pinned.
	for i := 0; i < 3; i++ {
		k.gate.TryAdvance()
		k.dentries.Reclaim(1 << 20)
	}
}

// Gate exposes the kernel's epoch gate so out-of-band readers (the
// auditor, introspection) can pin sections.
func (k *Kernel) Gate() *slab.Gate { return k.gate }

// DentryFromRef resolves a generation-tagged dentry reference, returning
// nil when the slot has been retired or recycled since the ref was
// minted. This is the only safe way to hold a dentry across operations
// without pinning it.
func (k *Kernel) DentryFromRef(r slab.Ref) *Dentry {
	return k.dentries.Resolve(r)
}

// MemStats reports slab-arena occupancy for telemetry: the dentry arena's
// live/free/limbo slot counts plus the kernel teardown queue depth and
// cumulative sweep count.
func (k *Kernel) MemStats() (dentries slab.Stats, limbo int64, swept uint64) {
	return k.dentries.Stats(), k.limboLen.Load(), k.swept.Load()
}

// TableStats reports the (parent, name) hash table's size and growth.
func (k *Kernel) TableStats() TableStats { return k.table.Stats() }

// DLHTStats reports every DLHT's size and growth, summed; zero on a
// kernel without hooks.
func (k *Kernel) DLHTStats() (tables TableStats) {
	for _, t := range k.DLHTs() {
		tables.Add(t.Stats())
	}
	return tables
}

// CheckSlabLiveness scans the references the cache holds into the dentry
// arena, the invariant the auditor's slab_liveness check enforces: a child
// map never outlives its entry's slot (detach precedes retirement on every
// teardown path), a chain of either table reaches only slots misfiled
// passes, every cached dentry a table holds by its own account is reached,
// and no cache member is dead. Returns how many references were examined
// and at most limit violations. Callers drain the teardown queue first
// (ReclaimAll); the check pins an epoch section.
func (k *Kernel) CheckSlabLiveness(limit int) (int, []string) {
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	checked := 0
	var out []string
	for _, t := range append(k.DLHTs(), k.table.Table) {
		reached := map[*Dentry]bool{}
		a := t.buckets.Load()
		t.scan(a, func(i int, d *Dentry) bool {
			checked++
			reached[d] = true
			if why := t.misfiled(len(a.b), i, d); why != "" {
				out = append(out, fmt.Sprintf("table: bucket %d reaches dentry #%d (handle %d), but %s", i, d.ID(), d.self.H, why))
			}
			return len(out) < limit
		})
		k.lru.forEach(func(d *Dentry) {
			if len(out) < limit && !reached[d] && t.holds(d) {
				out = append(out, fmt.Sprintf("table: dentry #%d is in the table by its own account, but no chain reaches it", d.ID()))
			}
		})
	}
	// Cache members: membership lives in the slot, so a member always
	// resolves; it must not be dead (every kill leaves the LRU in the same
	// bracket it sets DDead in), and each child its map names must still
	// own its slot — read under d.mu, which the detach that precedes any
	// retirement also takes, so a miss here is a freed slot still in use.
	k.lru.forEach(func(d *Dentry) {
		if len(out) >= limit {
			return
		}
		checked++
		if d.IsDead() {
			out = append(out, fmt.Sprintf("lru: dentry #%d (handle %d) is dead but still charged to the LRU", d.ID(), d.self.H))
		}
		d.mu.Lock()
		for name, c := range d.children {
			checked++
			if k.dentries.Resolve(c.self) != c && len(out) < limit {
				out = append(out, fmt.Sprintf("children: dentry #%d holds child %q (handle %d gen %d) whose slot was retired or recycled", d.ID(), name, c.self.H, c.self.G))
			}
		}
		d.mu.Unlock()
	})
	return checked, out
}

// InjectPrematureFree retires d's slab slot in place — the hash chains and
// its parent's child map still reference it, and Len() still counts it —
// and forces reclamation so the slot lands on the free-list while live structures
// can still reach it. Test-only seam: it fabricates the premature-free
// bug class (a use-after-free, in C terms) that the auditor's
// slab_liveness check exists to catch. Never call it outside a test.
func (k *Kernel) InjectPrematureFree(d *Dentry) {
	k.dentries.Retire(d.self)
	k.ReclaimAll()
}

// maybeShrink enforces CacheCapacity by evicting cold leaf dentries. It
// evicts in batches (a sliver beyond the overage) so that a cache
// hovering at capacity amortizes Shrink's fixed part — the hand's lock,
// the cacheMut bracket, the reap — over many inserts.
func (k *Kernel) maybeShrink() {
	if k.cfg.CacheCapacity <= 0 {
		return
	}
	over := k.lru.Len() - k.cfg.CacheCapacity
	if over <= 0 {
		return
	}
	slack := k.cfg.CacheCapacity / 16
	if slack < 1 {
		slack = 1
	}
	k.Shrink(over + slack)
}

// Shrink evicts up to n cold, unpinned leaf dentries and returns how many
// were evicted. A victim is dead and out of the LRU from the moment the
// hand claims it; the rest of the visible eviction (parent detach, hook
// notification) follows here, and hash-chain removal and slot recycling
// are deferred to the sweeper.
func (k *Kernel) Shrink(n int) int {
	e := k.gate.Enter()
	k.cacheMutBegin()
	victims := k.lru.victims(n)
	tel := k.journal()
	for _, d := range victims {
		pn := d.pn.Load()
		if pn.parent != nil {
			pn.parent.detachChild(pn.name, d) // no longer DIR_COMPLETE: the claim saw to it
		}
		k.Count(NEvictions, 1)
		if tel != nil {
			tel.Emit(telemetry.JEvict, d.ID(), 0, telemetry.NoteShrink)
		}
		if k.hooks != nil {
			k.hooks.OnEvict(d)
		}
		k.retireLater(d)
	}
	k.cacheMutEnd()
	k.gate.Exit(e)
	if len(victims) > 0 {
		k.reapSome()
	}
	return len(victims)
}

// DropCaches evicts every evictable dentry (repeatedly, so emptied parents
// become leaves and fall too) and returns the number evicted. Pinned
// dentries (roots, cwds, open files) survive. This is the experiment
// harness's "echo 2 > /proc/sys/vm/drop_caches".
func (k *Kernel) DropCaches() int {
	total := 0
	for {
		n := k.Shrink(1 << 20)
		total += n
		if n == 0 {
			k.ReclaimAll()
			return total
		}
	}
}

// beginMutation opens a mutation bracket on d: the hooks' BeginMutation if
// installed and, on a shard, d's path read now, before a rename moves d,
// for End to publish. Peer-applied invalidations never enter the log:
// republishing them would bounce every invalidation between shards forever.
func (k *Kernel) beginMutation(d *Dentry, why Invalidation) Mutation {
	m := Mutation{D: d, Why: why}
	if k.hooks != nil {
		m = k.hooks.BeginMutation(d, why)
	}
	if log := k.coh.Load(); log != nil && !why.Remote() {
		m.log, m.path = log, d.PathTo()
	}
	return m
}

// renameWriteLock enters a structural-change critical section: the rename
// seqcount goes odd, optimistic walks retry, and ref-walks block.
func (k *Kernel) renameWriteLock() {
	k.renameRW.Lock()
	k.renameSeq.Add(1)
}

func (k *Kernel) renameWriteUnlock() {
	k.renameSeq.Add(1)
	k.renameRW.Unlock()
}

// readSeqBegin/readSeqValid implement the optimistic reader side.
func (k *Kernel) readSeqBegin() (uint64, bool) {
	s := k.renameSeq.Load()
	return s, s&1 == 0
}

func (k *Kernel) readSeqValid(s uint64) bool {
	return k.renameSeq.Load() == s
}
