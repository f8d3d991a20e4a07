package core

import (
	"sync"
	"sync/atomic"

	"dircache/internal/coherence"
	"dircache/internal/cred"
	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/stripe"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// Config selects the fastpath behaviour.
type Config struct {
	// Seed keys the signature hash function; 0 draws a per-Core unique
	// seed (the "random key at boot" of §3.3). Fix it only in tests.
	Seed uint64
	// PCCBytes sizes each per-credential prefix check cache (default
	// 64 KiB, the paper's evaluated size).
	PCCBytes int
	// PCCMaxBytes caps dynamic PCC growth (the production resize policy
	// the paper leaves as future work). 0 = 32x PCCBytes; set equal to
	// PCCBytes to pin the size.
	PCCMaxBytes int
	// DeepNegatives enables §5.2's deep negative dentries (negative
	// children under negative dentries and ENOTDIR dentries under files).
	DeepNegatives bool
	// SymlinkAliases enables §4.2's symlink alias dentries.
	SymlinkAliases bool
	// LexicalDotDot selects Plan 9 lexical ".." semantics instead of
	// Linux's extra per-dot-dot permission lookup (§4.2).
	LexicalDotDot bool
	// ForcePCCMiss makes every final PCC probe miss, exercising the full
	// fastpath cost followed by the slow walk — the "fastpath miss +
	// slowpath" worst case of Figure 6. Benchmarks only.
	ForcePCCMiss bool
	// AdmitAfter defers DLHT insertion and PCC memoization until a dentry's
	// Nth slow-path touch (admission control: single-touch paths — tar
	// extraction, rm -r — never pay population cost). 0 selects the default
	// of 2; 1 or less admits on first touch (the original behaviour).
	AdmitAfter int
}

// Stats are fastpath counters.
type Stats struct {
	TryFast        int64 // fastpath attempts
	Hits           int64 // full fastpath hits (DLHT + PCC)
	NegHits        int64 // hits that answered ENOENT/ENOTDIR
	DLHTMiss       int64 // fell back: signature not in DLHT
	PCCMiss        int64 // fell back: prefix check not memoized/stale, and not re-checkable in place
	Rechecks       int64 // PCC misses on a table hit answered by re-checking the prefix in place
	DotDotChecks   int64 // extra per-".." fastpath permission lookups
	Populations    int64 // DLHT+PCC population events
	Invalidation   int64 // shootdowns (one per BeginMutation)
	StaleTokens    int64 // populations skipped due to concurrent mutation
	AliasCreated   int64
	DeepNegCreated int64
	SeqBumps       int64 // per-dentry version bumps (mutation roots + lazily discarded descendants)
	DLHTSweeps     int64 // dead nodes reclaimed by DLHT inserts
	PCCFlushes     int64 // whole-PCC invalidations
	PCCResizes     int64 // PCC generation copies

	// Admission control + batched shootdown (zero when AdmitAfter <= 1
	// and no bulk mutations ran).
	Admitted        int64 // populations allowed on a dentry's Nth touch
	Deferred        int64 // populations declined pending more touches
	BatchShootdowns int64 // subtree invalidations taken as one range mark
	LazyShootdowns  int64 // stale entries discarded lazily by probes/sweeps

	HashedBytes int64 // bytes fed to the path hash (all paths)
}

// statsCell holds the fastpath counters. The miss counters sit on the
// TryFast fallback path, which concurrent walks hit together, so they are
// striped (stripe.Int64) like the kernel's counters rather than shared
// atomics.
type statsCell struct {
	dlhtMiss, pccMiss, rechecks, dotDotChecks stripe.Int64

	// Every scan, warm ones included, feeds hashedBytes: striped too.
	hashedBytes stripe.Int64

	populations, invalidations, staleTokens, aliasCreated,
	deepNegCreated, seqBumps atomic.Int64

	admitted, deferred,
	batchShootdowns, lazyShootdowns atomic.Int64
}

// fastDentry is the per-dentry fastpath state — the paper's struct
// fast_dentry (Figure 5): the resumable signature state of the dentry's
// canonical path, the signature and DLHT index, a version counter (seq)
// that invalidates PCC entries, the mount pointer, and — for symlinks —
// the cached resolution target.
type fastDentry struct {
	// self is the dentry's slot in the core's fast-dentry arena, kept so
	// OnReclaim can retire it alongside the dentry's own slot.
	self slab.Ref

	seq atomic.Uint64

	// validGen is the batch-shootdown generation this dentry's fastpath
	// state is known valid against. The hot-path freshness check is one
	// load and compare against Core.shootGen; only a mismatch walks
	// ancestors looking for a newer shootMark (see Core.fresh).
	validGen atomic.Uint64

	// shootMark, when > 0, makes this dentry the root of a range shootdown
	// (see rangeMark): every descendant whose validGen predates the mark's
	// generation must be lazily discharged before use — its PCC entries
	// staled, and, if the mark's structural generation is newer too, its
	// pre-mutation table entry and state dropped.
	shootMark rangeMark

	// touches counts slow-path populations declined by admission control;
	// reset when the dentry changes identity (negative <-> positive).
	touches atomic.Uint32

	mu      sync.Mutex
	idx     uint16
	sg      sig.Signature
	inTable *DLHT // the one DLHT currently holding this dentry

	// state is the signature state of the dentry's canonical path, in
	// place: stored and cleared under mu, loaded without it by TryFast.
	// A dentry in a table always has one (the state its sg sums).
	state sig.Shared

	// mntP records the mount the signature was computed under, so a
	// fastpath hit can report mount options without a tree walk (§4.3).
	mntP atomic.Pointer[vfs.Mount]

	// target caches a followed symlink's (or alias's) resolution (§4.2
	// stores the target-path signature; a generation-tagged dentry ref
	// pinned to the target's version counter is equivalent: any structural
	// or permission change to the target bumps its seq and stales this,
	// and slot recycling makes the packed ref stop resolving). 0 = none.
	target    atomic.Uint64
	targetSeq atomic.Uint64

	// pubSeq records seq as of the moment the current table entry was
	// published. The coherence invariant the auditor checks: a live
	// dentry in a DLHT has pubSeq == seq — every seq bump either removes
	// the entry (shootdown, under mu) or marks the dentry dead (evict).
	// Audit-only, so it sits at the tail, off TryFast's cache lines.
	pubSeq uint64 // guarded by mu
}

// reset re-initializes a fast-dentry slot for a new tenant. Explicit
// per-field stores rather than a struct assignment: the struct embeds a
// mutex (vet copylocks), and the previous tenant is guaranteed to have
// unlocked it before the slot cleared its grace period.
func (fd *fastDentry) reset(self slab.Ref) {
	fd.self = self
	fd.seq.Store(0)
	fd.validGen.Store(0)
	fd.shootMark.w.Store(0)
	fd.touches.Store(0)
	fd.idx = 0
	fd.sg = sig.Signature{}
	fd.inTable = nil
	fd.state.Clear()
	fd.mntP.Store(nil)
	fd.target.Store(0)
	fd.targetSeq.Store(0)
	fd.pubSeq = 0
}

// Core implements vfs.Hooks.
type Core struct {
	cfg Config
	k   *vfs.Kernel
	key *sig.Key

	// fds and nodes are the core's slab arenas — per-dentry fastpath
	// state and DLHT chain nodes — driven by the kernel's epoch gate so
	// one grace period covers dentries and everything hanging off them.
	fds   *slab.Arena[fastDentry]
	nodes *slab.Arena[dnode]

	// epoch is the global invalidation counter (§3.2): odd while a
	// structural/permission mutation is in flight; slowpath results are
	// only cached if it is even and unchanged across the walk.
	epoch atomic.Uint64

	// shootGen is the batch-shootdown generation counter: each range
	// shootdown bumps it once (instead of bumping every descendant's seq)
	// and stamps the subtree root's shootMark with the new value. Fastpath
	// probes compare a dentry's validGen against shootGen and, on
	// mismatch, climb its ancestors for a newer mark (Core.fresh).
	shootGen atomic.Uint64

	// admitAfter caches Config.AdmitAfter with the default applied.
	admitAfter int

	// coh, when set, is the coherence log peer shards read (DESIGN §8):
	// every root invalidation that did not itself come from a peer
	// publishes the mutated dentry's path there when its mutation
	// completes. Nil unless the System is
	// a shard: PathTo walks the parent chain and allocates, a cost only
	// sharded deployments should pay.
	coh atomic.Pointer[coherence.Log]

	// regMu guards the registries below. pccs registers every live PCC
	// (with its owning credential) so that a per-dentry version counter
	// wrapping its truncated width can invalidate all of them — the
	// paper's §3.1 wraparound rule ("our design currently handles
	// wrap-around by invalidating all active PCCs") — and so the auditor
	// can re-verify memoized prefix checks per credential. dlhts registers
	// every per-namespace DLHT for introspection and auditing.
	regMu sync.Mutex
	pccs  []pccReg
	dlhts []*DLHT

	stats statsCell
}

// pccReg pairs a registered PCC with the credential it caches for.
type pccReg struct {
	cr *cred.Cred
	p  *PCC
}

var seedCounter atomic.Uint64

// Install wires a Core into k and returns it. Call once, before tasks run.
func Install(k *vfs.Kernel, cfg Config) *Core {
	if cfg.Seed == 0 {
		cfg.Seed = 0x5ca1ab1e0ddba11 ^ (seedCounter.Add(1) * 0x9e3779b97f4a7c15)
	}
	c := &Core{cfg: cfg, k: k, key: sig.NewKey(cfg.Seed)}
	c.fds = slab.New[fastDentry](k.Gate(), slab.Options{})
	c.nodes = slab.New[dnode](k.Gate(), slab.Options{})
	c.admitAfter = cfg.AdmitAfter
	if c.admitAfter == 0 {
		c.admitAfter = 2
	}
	k.SetHooks(c)
	return c
}

// Stats snapshots the fastpath counters. Hit counts live in the kernel's
// counters (the hot path records them once there); TryFast approximates
// attempts as hits + recorded miss reasons.
func (c *Core) Stats() Stats {
	ks := c.k.Stats()
	return Stats{
		TryFast:        ks.FastHits + c.stats.dlhtMiss.Load() + c.stats.pccMiss.Load(),
		Hits:           ks.FastHits,
		NegHits:        ks.FastNegHits,
		DLHTMiss:       c.stats.dlhtMiss.Load(),
		PCCMiss:        c.stats.pccMiss.Load(),
		Rechecks:       c.stats.rechecks.Load(),
		DotDotChecks:   c.stats.dotDotChecks.Load(),
		Populations:    c.stats.populations.Load(),
		Invalidation:   c.stats.invalidations.Load(),
		StaleTokens:    c.stats.staleTokens.Load(),
		AliasCreated:   c.stats.aliasCreated.Load(),
		DeepNegCreated: c.stats.deepNegCreated.Load(),
		SeqBumps:       c.stats.seqBumps.Load(),
		DLHTSweeps:     c.sumDLHTSweeps(),
		PCCFlushes:     c.sumPCC(func(p *PCC) int64 { return p.flushes.Load() }),
		PCCResizes:     c.sumPCC(func(p *PCC) int64 { return p.resizes.Load() }),

		Admitted:        c.stats.admitted.Load(),
		Deferred:        c.stats.deferred.Load(),
		BatchShootdowns: c.stats.batchShootdowns.Load(),
		LazyShootdowns:  c.stats.lazyShootdowns.Load(),

		HashedBytes: c.stats.hashedBytes.Load(),
	}
}

// MemStats snapshots the core's slab arenas — fast-dentry side-table
// slots and DLHT chain nodes — and every namespace's DLHT bucket array,
// summed, for telemetry's "mem" gauges and the memscale experiment.
func (c *Core) MemStats() (fds, nodes slab.Stats, dlht vfs.TableStats) {
	dlhts, _ := c.registered()
	for _, dl := range dlhts {
		dlht.Add(dl.Stats())
	}
	return c.fds.Stats(), c.nodes.Stats(), dlht
}

// registered snapshots the two registries.
func (c *Core) registered() ([]*DLHT, []pccReg) {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	return append([]*DLHT(nil), c.dlhts...), append([]pccReg(nil), c.pccs...)
}

func (c *Core) sumDLHTSweeps() (n int64) {
	dlhts, _ := c.registered()
	for _, dl := range dlhts {
		n += dl.sweeps.Load()
	}
	return n
}

func (c *Core) sumPCC(f func(*PCC) int64) (n int64) {
	_, regs := c.registered()
	for _, r := range regs {
		n += f(r.p)
	}
	return n
}

// tele returns the kernel's telemetry sink iff it is enabled, nil
// otherwise — the usual one-load-one-branch detachment pattern.
func (c *Core) tele() *telemetry.Telemetry {
	tel := c.k.Telemetry()
	if !tel.On() {
		return nil
	}
	return tel
}

// fast extracts the fastDentry attached at allocation.
func fast(d *vfs.Dentry) *fastDentry {
	fd, _ := d.Fast().(*fastDentry)
	return fd
}

// NewDentry implements vfs.Hooks. The fastDentry comes from the core's
// slab arena (one slot per dentry, same lifecycle), not the GC heap. The
// fresh dentry's validGen starts at the current shootdown generation: it
// holds no state a past range shootdown could have staled, so there is
// nothing to climb for.
func (c *Core) NewDentry(d *vfs.Dentry) any {
	r, fd := c.fds.Alloc()
	fd.reset(r)
	fd.validGen.Store(c.shootGen.Load())
	return fd
}

// OnReclaim implements vfs.Hooks: the lazy-teardown sweeper is about to
// retire a dead dentry's slab slot. Finish the fastpath half of the
// teardown that kill time deferred — drop the residual DLHT entry and
// cached state, then retire the fast-dentry slot into the same
// grace-period limbo. In-section readers still holding the dentry can
// keep dereferencing fd until the grace period ends.
func (c *Core) OnReclaim(d *vfs.Dentry) {
	fd := fast(d)
	if fd == nil {
		return
	}
	unpublish(d, fd, telemetry.NoteReclaim)
	c.fds.Retire(fd.self)
}

// OnReap implements vfs.Hooks: the kernel's reclamation cadence. Return
// grace-elapsed fast-dentry and DLHT-node slots to their free-lists so
// churn recycles slots instead of growing the arenas. Reclaim bounds
// match the kernel's own per-call batches; the DLHT-node budget is
// larger because insert-time sweeps retire nodes in bursts.
func (c *Core) OnReap() {
	c.fds.Reclaim(8192)
	c.nodes.Reclaim(16384)
}

// OnRecycle implements vfs.Hooks: the dentry changed identity (a positive
// dentry went negative on unlink, or a negative one was re-created).
// Admission touch counts from the previous identity must not carry over —
// a freshly re-created file is a first-touch dentry again.
func (c *Core) OnRecycle(d *vfs.Dentry) {
	if fd := fast(d); fd != nil {
		fd.touches.Store(0)
	}
}

// dlhtFor returns the namespace's private DLHT, creating it on first use
// (§4.3: per-namespace direct lookup hash tables).
func (c *Core) dlhtFor(ns *vfs.Namespace) *DLHT {
	if v := ns.FastLoad(); v != nil {
		return v.(*DLHT)
	}
	fresh := newDLHT(c.nodes, c.k)
	dl := ns.FastStoreIfAbsent(fresh).(*DLHT)
	if dl == fresh { // this call's table won the namespace: register it
		c.regMu.Lock()
		c.dlhts = append(c.dlhts, dl)
		c.regMu.Unlock()
	}
	return dl
}

// pccFor returns the credential's PCC, creating it on first use (§4.1:
// PCCs attach to immutable, shared cred structures).
func (c *Core) pccFor(cr *cred.Cred) *PCC {
	if v := cr.CacheLoad(); v != nil {
		return v.(*PCC)
	}
	np := newPCC(c.cfg.PCCBytes, c.cfg.PCCMaxBytes)
	np.tel = c.k.Telemetry
	np.credID = cr.ID()
	p := cr.CacheStoreIfAbsent(np).(*PCC)
	if p == np {
		c.regMu.Lock()
		c.pccs = append(c.pccs, pccReg{cr: cr, p: p})
		c.regMu.Unlock()
	}
	return p
}

// invalidateAllPCCs wipes every registered prefix check cache (version
// counter wraparound, §3.1).
func (c *Core) invalidateAllPCCs() {
	_, regs := c.registered()
	for _, r := range regs {
		r.p.Invalidate()
	}
}

// BeginSlow implements vfs.Hooks: capture the invalidation epoch.
func (c *Core) BeginSlow() uint64 { return c.epoch.Load() }

// tokenValid reports whether a slowpath result captured at token may be
// cached: the epoch must be even (no mutation in flight) and unchanged.
func (c *Core) tokenValid(token uint64) bool {
	cur := c.epoch.Load()
	return cur == token && cur&1 == 0
}

// BeginMutation implements vfs.Hooks (§3.2): bump the invalidation epoch
// and shoot down the subtree's fastpath state; the bracket it returns
// re-bumps the epoch when the mutation completes (EndMutation). The
// shootdown is timed into the reason's mutation-side histogram and
// journaled: one epoch_bump per edge, one seq_bump at the root.
func (c *Core) BeginMutation(d *vfs.Dentry, why vfs.Invalidation) vfs.Mutation {
	tel := c.tele()
	epoch := c.epoch.Add(1)
	c.stats.invalidations.Add(1)
	var start int64
	if tel != nil {
		tel.Emit(telemetry.JEpochBump, d.ID(), int64(epoch), why.Note())
		start = telemetry.Now()
	}
	c.shoot(d, why, tel)
	if tel != nil {
		tel.Record(invalHist(why), telemetry.Since(start))
	}
	m := vfs.Mutation{Hooks: c, D: d, Why: why}
	// Peer-applied invalidations never enter the log: republishing them
	// would bounce every invalidation between shards forever.
	if c.coh.Load() != nil && !why.Remote() {
		// The path is read now, before a rename moves d, and published only
		// once the mutation is done: a peer that applied the record any
		// earlier could re-read the backend's old state and cache it for good.
		m.Path = d.PathTo()
	}
	return m
}

// EndMutation implements vfs.Hooks: the closing epoch bump and, on a
// shard, the mutated path's publication to the coherence log.
func (c *Core) EndMutation(m vfs.Mutation) {
	epoch := c.epoch.Add(1)
	if tel := c.tele(); tel != nil {
		// The even epoch is what marks this as the closing bump.
		tel.Emit(telemetry.JEpochBump, m.D.ID(), int64(epoch), m.Why.Note())
	}
	if m.Path != "" {
		c.coh.Load().Publish(m.Path, m.Why.String())
	}
}

// EnableCoherence attaches the coherence log (see the coh field) on first
// call.
func (c *Core) EnableCoherence() {
	if c.coh.Load() == nil {
		c.coh.CompareAndSwap(nil, coherence.New())
	}
}

// Coherence returns the coherence log: nil until EnableCoherence, and on
// the nil Core of a System built without the fastpath.
func (c *Core) Coherence() *coherence.Log {
	if c == nil {
		return nil
	}
	return c.coh.Load()
}

// shoot is the one shootdown every mutation takes (DESIGN §5d). d's seq
// bump stales the PCC entries naming it. A structural change also drops
// d's table entry, signature state and cached symlink target; a permission
// change leaves them, because the path still names d (§3.2). If d has
// cached children it becomes the root of a range shootdown of that class —
// one generation bump and d's shootMark — and every descendant is
// discharged by fresh() on its first probe, O(1) here instead of
// O(subtree). That is sound because nothing consults a descendant's PCC
// entry, or advances its validGen, without calling fresh() on it first.
func (c *Core) shoot(d *vfs.Dentry, why vfs.Invalidation, tel *telemetry.Telemetry) {
	fd := fast(d)
	if fd == nil {
		return
	}
	kids, perm := d.ChildCount(), why.PermOnly()
	if perm {
		c.bumpPublished(fd)
	} else {
		c.bumpSeq(fd)
		unpublish(d, fd, telemetry.NoteShootdown)
	}
	if tel != nil {
		tel.Emit(telemetry.JSeqBump, d.ID(), int64(kids), why.Note())
	}
	if kids == 0 {
		return
	}
	gen := c.shootGen.Add(1)
	c.stats.batchShootdowns.Add(1)
	fd.shootMark.stamp(gen, !perm)
	if tel != nil {
		tel.Emit(telemetry.JBatchShoot, d.ID(), int64(gen), why.Note())
	}
}

// rangeMark is a dentry's shootMark word. It packs two shootdown
// generations: the newest range mark of either class in the high bits and,
// in the low markLagBits, how far behind it the newest *structural* mark
// trails. A permission change therefore never hides the rename stamped
// before it, and a rename's claim on the subtree ends with the descendants
// that predate it instead of turning every later chmod of the directory
// structural. The lag saturates: a structural mark older than markLagMax
// generations reads as that old exactly, which can only over-discard.
type rangeMark struct{ w atomic.Uint64 }

const (
	markLagBits = 20
	markLagMax  = 1<<markLagBits - 1
)

// gens unpacks the mark: the newest generation of any class and the newest
// structural one, both 0 on a dentry never marked.
func (m *rangeMark) gens() (gen, structural uint64) {
	w := m.w.Load()
	gen = w >> markLagBits
	return gen, gen - w&markLagMax
}

// stamp records a range shootdown at generation gen. Mutations of one
// dentry can overlap (the bracket opens before any lock), hence the CAS.
func (m *rangeMark) stamp(gen uint64, structural bool) {
	for {
		old := m.w.Load()
		oldGen := old >> markLagBits
		newGen := max(gen, oldGen)
		lag := uint64(0)
		if !structural {
			lag = min((old&markLagMax)+newGen-oldGen, markLagMax)
		}
		if m.w.CompareAndSwap(old, newGen<<markLagBits|lag) {
			return
		}
	}
}

// bumpSeq advances the dentry's version, which stales every PCC entry
// naming it without touching any PCC.
func (c *Core) bumpSeq(fd *fastDentry) {
	c.stats.seqBumps.Add(1)
	if fd.seq.Add(1)&pccSeqMask == 0 {
		// The truncated seq stored in PCC entries wrapped: stale entries
		// from 2^31 bumps ago would match again. Wipe all PCCs, as the
		// paper does for its 32-bit counters.
		c.invalidateAllPCCs()
	}
}

// bumpPublished is bumpSeq for a dentry that keeps its table entry: the
// entry is re-stamped with the new version under mu, so "a live entry's
// pubSeq is its dentry's seq" (the auditor's dlht_stale) still means a
// bump that should have unpublished did not.
func (c *Core) bumpPublished(fd *fastDentry) {
	fd.mu.Lock()
	c.bumpSeq(fd)
	fd.pubSeq = fd.seq.Load()
	fd.mu.Unlock()
}

// unpublish drops what the fastpath holds for d under its current path:
// the table entry, the signature state (recomputed by the next
// population) and a cached symlink target.
func unpublish(d *vfs.Dentry, fd *fastDentry, why telemetry.Note) {
	fd.mu.Lock()
	if fd.inTable != nil {
		fd.inTable.Remove(fd.idx, fd.sg, d, why)
		fd.inTable = nil
	}
	fd.state.Clear()
	fd.target.Store(0)
	fd.mu.Unlock()
}

// fresh reports whether d's table entry and signature state postdate every
// structural range shootdown covering it. The hot path is one
// load-and-compare; only a generation mismatch climbs the ancestor chain
// for a mark newer than d's validGen. A covered dentry gets here the
// per-dentry work the shootdown deferred. Under a structural mark that is
// the seq bump (staling its PCC entries) and the table entry and state
// dropped, and fresh returns false so the caller falls back to the slow
// walk. Under permission marks only, the bump is all of it: the path still
// names d, fresh returns true, and the caller's PCC probe — which must
// read the seq after this call — misses and re-checks the prefix.
//
// Either way validGen then advances to the generation read *before* the
// climb, and only if the invalidation epoch was even and unchanged across
// it. Without that gate a racing mutation could stamp an ancestor's
// shootMark after the climb had passed it, and the new validGen would
// mask that mark forever; with it, either the climb sees the mark (the
// epoch is bumped before the generation, seq-cst) or the epoch check
// fails, validGen stays, and the next probe climbs — and perhaps bumps —
// again. The generation current *after* the bump would not do: a probe
// descheduled between the two across a whole chmod would declare the
// dentry fresh against a mark its bump preceded (TestStressWalkVsChmod).
func (c *Core) fresh(d *vfs.Dentry) bool {
	fd := fast(d)
	if fd == nil {
		return true
	}
	gen := c.shootGen.Load()
	vg := fd.validGen.Load()
	if vg == gen {
		return true
	}
	e1 := c.epoch.Load()
	at, structural := c.markedAbove(d, vg)
	if at != nil {
		c.stats.lazyShootdowns.Add(1)
		if structural {
			c.bumpSeq(fd)
			unpublish(d, fd, telemetry.NoteLazyShootdown)
		} else {
			c.bumpPublished(fd)
		}
	}
	if e1&1 == 0 && c.epoch.Load() == e1 {
		fd.validGen.Store(gen)
	}
	return !structural
}

// markedAbove climbs d's ancestors for range marks newer than generation
// vg: at is the nearest one carrying such a mark (nil if none), and
// structural whether any on the way up is of the structural class — so a
// permission mark does not end the climb, a structural one does. d's own
// mark is not consulted: it covers d's descendants, and the shootdown that
// stamped it dealt with d itself. Ancestors are those of d's canonical
// path, as pathState spells it: at the root of the mount d's signature was
// computed under, the climb continues from the mountpoint (§4.3), so a
// chmod above a mountpoint covers the mounted tree too.
func (c *Core) markedAbove(d *vfs.Dentry, vg uint64) (at *vfs.Dentry, structural bool) {
	var mnt *vfs.Mount
	if fd := fast(d); fd != nil {
		mnt = fd.mntP.Load()
	}
	for cur := d; ; {
		if mnt != nil && cur == mnt.Root() {
			cur, mnt = mnt.Mountpoint(), mnt.ParentMount()
		} else {
			cur = cur.Parent()
		}
		if cur == nil {
			break
		}
		cfd := fast(cur)
		if cfd == nil {
			break
		}
		if gen, sgen := cfd.shootMark.gens(); gen > vg {
			if at == nil {
				at = cur
			}
			if sgen > vg {
				return at, true
			}
		}
	}
	return at, false
}

// SweepStale walks every registered DLHT and lazily discards entries
// staled by batch shootdowns — the "one sweep" after which a batch-shot
// subtree must hold no live entries (the auditor runs this before its
// scans). Returns the number of entries discarded.
func (c *Core) SweepStale() int {
	dlhts, _ := c.registered()
	n := 0
	for _, dl := range dlhts {
		dl.forEachEntry(func(_ uint16, _ sig.Signature, d *vfs.Dentry) {
			if !c.fresh(d) {
				n++
			}
		})
	}
	return n
}

// ShootGen returns the current batch-shootdown generation (introspection).
func (c *Core) ShootGen() uint64 { return c.shootGen.Load() }

// invalHist maps an invalidation reason to its latency histogram.
func invalHist(why vfs.Invalidation) telemetry.HistID {
	switch why {
	case vfs.InvalPerm:
		return telemetry.HistChmodBump
	case vfs.InvalUnlink:
		return telemetry.HistUnlinkInval
	default: // rename and mount-topology changes share an envelope
		return telemetry.HistRenameInval
	}
}

// OnEvict implements vfs.Hooks. The dentry is dead, and DLHT lookups skip
// dead dentries, so its table node is reclaimed lazily by the next insert
// into the bucket — eviction itself stays O(1).
func (c *Core) OnEvict(d *vfs.Dentry) {
	fd := fast(d)
	if fd == nil {
		return
	}
	fd.seq.Add(1)
}

// pathState loads ref.D's canonical-path signature state into *dst: the
// stored one, else its parent's (computed and stored there the same way)
// extended by the dentry's name. The mount chain supplies the
// namespace-level canonical path: a mount root's path is its mountpoint's
// path (§4.3). keep stores a computed state in the dentry; a caller about
// to publish passes false, because publish stores it in the critical
// section that inserts. False means there is no state to be had (a dead or
// detached dentry, a path past sig.MaxPathLen) and *dst is garbage.
func (c *Core) pathState(ref vfs.PathRef, dst *sig.State, keep bool) bool {
	fd := fast(ref.D)
	if fd == nil || ref.Mnt == nil || ref.D.IsDead() {
		return false
	}
	// A range shootdown leaves descendants' stored states in place; fresh
	// drops a stale one here rather than serve a pre-mutation signature.
	_ = c.fresh(ref.D)
	if fd.state.Load(c.key, dst) {
		return true
	}
	token := c.epoch.Load()
	if ref.D == ref.Mnt.Root() {
		if ref.Mnt.ParentMount() == nil {
			*dst = c.key.NewState() // namespace root: empty path prefix
		} else if !c.pathState(vfs.PathRef{Mnt: ref.Mnt.ParentMount(), D: ref.Mnt.Mountpoint()}, dst, true) {
			return false
		}
	} else {
		p := ref.D.Parent()
		if p == nil { // detached from the tree (racing eviction)
			return false
		}
		name := ref.D.Name()
		if !c.pathState(vfs.PathRef{Mnt: ref.Mnt, D: p}, dst, true) || !dst.Fits(len(name)+1) {
			return false
		}
		dst.AppendComponent(name)
		c.stats.hashedBytes.Add(int64(len(name) + 1))
	}
	if keep {
		// Under mu, as in publish: a mutation that moved the name or the
		// parent this state was read from bumped the epoch before its
		// shootdown took mu, so it is either seen here or clears the store.
		fd.mu.Lock()
		if c.tokenValid(token) {
			fd.state.Store(dst)
			fd.mntP.Store(ref.Mnt)
		}
		fd.mu.Unlock()
	}
	return true
}

// publish installs d in the namespace's DLHT under state st, handling the
// mount-alias re-signing rule of §4.3: if the dentry is already in a DLHT
// under a different signature, the old entry is removed, the version
// counter bumped (aliased paths may have different prefix check results),
// and the new signature takes over.
//
// token is the walk's invalidation-epoch token: it is re-validated under
// fd.mu, closing the window between a caller's tokenValid check and the
// insert. Without it, a mutation landing in that window could shoot down
// the (not yet present) entry and then have publish install a signature
// computed from the pre-mutation path — a stale DLHT entry. The shootdown
// bumps the epoch before taking fd.mu, so whichever critical section runs
// second sees the other's work: either the shootdown removes our entry, or
// we observe the odd/advanced epoch and decline to insert.
func (c *Core) publish(dl *DLHT, ref vfs.PathRef, st *sig.State, token uint64) {
	fd := fast(ref.D)
	if fd == nil || ref.D.IsDead() {
		return
	}
	if ref.D.Super().Caps().Revalidate {
		// §4.3: stateless network file systems must revalidate every
		// component at the server; a whole-path hit would skip that.
		return
	}
	// validGen is stamped below: discharge a pending range shootdown first
	// (it bumps seq), or the stamp would hide the mark from every later
	// fresh() and leave other credentials' PCC entries for d standing.
	_ = c.fresh(ref.D)
	idx, sg := st.Sum()
	fd.mu.Lock()
	defer fd.mu.Unlock()
	// Load the shootdown generation BEFORE validating the token: a batch
	// shootdown bumps the epoch before the generation, so if tokenValid
	// passes, gen is at least as new as any shootdown that could have
	// covered the state we are publishing — stamping validGen = gen below
	// can never mask a mark this entry should honour.
	gen := c.shootGen.Load()
	if !c.tokenValid(token) {
		c.stats.staleTokens.Add(1)
		return
	}
	if fd.inTable != nil {
		if fd.inTable == dl && fd.sg == sg {
			fd.mntP.Store(ref.Mnt)
			fd.validGen.Store(gen)
			return // already published under this signature
		}
		// Aliased path or namespace switch: most recent wins.
		fd.inTable.Remove(fd.idx, fd.sg, ref.D, telemetry.NoteResign)
		fd.inTable = nil
		fd.seq.Add(1)
	}
	fd.state.Store(st)
	fd.idx, fd.sg = idx, sg
	fd.mntP.Store(ref.Mnt)
	fd.pubSeq = fd.seq.Load()
	fd.validGen.Store(gen)
	dl.Insert(idx, sg, ref.D)
	fd.inTable = dl
	c.stats.populations.Add(1)
}

// Seq returns d's current fastpath version (for PCC entries).
func dentrySeq(d *vfs.Dentry) uint64 {
	if fd := fast(d); fd != nil {
		return fd.seq.Load()
	}
	return 0
}
