package core

import (
	"sync"
	"sync/atomic"

	"dircache/internal/cred"
	"dircache/internal/sig"
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

// fastDentry is the per-dentry fastpath state — the paper's struct
// fast_dentry (Figure 5), which vfs embeds in every dentry: the resumable
// signature state of the dentry's canonical path, which is also its DLHT
// entry's key, a version counter (Seq) that invalidates PCC entries, the
// mount pointer, and — for symlinks — the cached resolution target. vfs declares
// the layout and threads the DLHT's chains through Link; every other
// method and invariant on it is here.
//
//   - ValidGen is the range-shootdown generation the state is known valid
//     against. The hot-path freshness check is one load and compare against
//     Core.shootGen; only a mismatch walks ancestors looking for a newer
//     ShootMark (see Core.fresh).
//   - ShootMark, when > 0, makes this dentry the root of a range shootdown
//     (see markGens): every descendant whose ValidGen predates the mark's
//     generation must be lazily discharged before use — its PCC entries
//     staled, and, if the mark's structural generation is newer too, its
//     pre-mutation table entry and state dropped.
//   - Touches counts slow-path populations declined by admission control;
//     it starts at zero with the slot's tenant and survives a flip between
//     negative and positive in place.
//   - State is stored and cleared under Mu, loaded without it by TryFast. A
//     dentry in a table always has one, its key: filed under its Index.
//   - MntP records the mount the signature was computed under, so a
//     fastpath hit can report mount options without a tree walk (§4.3).
//   - Target caches a followed symlink's (or alias's) resolution (§4.2
//     stores the target-path signature; a generation-tagged dentry ref
//     pinned to the target's version counter is equivalent: any structural
//     or permission change to the target bumps its Seq and stales this,
//     and slot recycling makes the packed ref stop resolving). 0 = none.
//   - PubSeq records Seq as of the moment the current table entry was
//     published. The coherence invariant the auditor checks: a live dentry
//     in a DLHT has PubSeq == Seq — every seq bump either removes the entry
//     (shootdown, under Mu) or marks the dentry dead (evict).
type fastDentry vfs.FastDentry

// fast returns d's fastpath state: a conversion, never nil.
func fast(d *vfs.Dentry) *fastDentry { return (*fastDentry)(d.Fast()) }

// reset initializes the state for a new tenant of the dentry's slot, valid
// as of shootdown generation gen. Explicit per-field stores rather than a
// struct assignment: the struct embeds a mutex (vet copylocks), and the
// previous tenant is guaranteed to have unlocked it before the slot cleared
// its grace period.
func (fd *fastDentry) reset(gen uint64) {
	fd.Seq.Store(0)
	fd.ValidGen.Store(gen)
	fd.ShootMark.Store(0)
	fd.Touches.Store(0)
	fd.InTable.Store(nil)
	fd.State.Clear()
	fd.MntP.Store(nil)
	fd.Target.Store(0)
	fd.TargetSeq.Store(0)
	fd.PubSeq = 0
}

// Core implements vfs.Hooks.
type Core struct {
	cfg Config
	k   *vfs.Kernel
	key *sig.Key

	// epoch is the global invalidation counter (§3.2). Every mutation
	// edge adds epochEdge, and the low bits count the mutations in flight;
	// slowpath results are only cached if it is quiescent and unchanged
	// across the walk.
	epoch atomic.Uint64

	// shootGen is the batch-shootdown generation counter: each range
	// shootdown bumps it once (instead of bumping every descendant's seq)
	// and stamps the subtree root's ShootMark with the new value. Fastpath
	// probes compare a dentry's ValidGen against shootGen and, on
	// mismatch, climb its ancestors for a newer mark (Core.fresh).
	shootGen atomic.Uint64

	// topoGen is the generation of the newest range mark a mount or
	// unmount stamped. A dentry validated before it may sit below a
	// mountpoint that now covers it, or in a tree that was unmounted, and
	// its parent chain cannot tell: fresh discards it rather than
	// re-derive its key (keepUnmoved).
	topoGen atomic.Uint64

	// admitAfter caches Config.AdmitAfter with the default applied.
	admitAfter int

	// regMu guards pccs, which registers every live PCC (with its owning
	// credential) so that a per-dentry version counter wrapping its
	// truncated width can invalidate all of them — the paper's §3.1
	// wraparound rule ("our design currently handles wrap-around by
	// invalidating all active PCCs") — and so the auditor can re-verify
	// memoized prefix checks per credential. The DLHTs need no registry:
	// the kernel keeps them (Kernel.DLHTs).
	regMu sync.Mutex
	pccs  []pccReg

	// The pad puts memo.sets on a cache line (TestMemoSetsAligned): a Core
	// is one large, page-aligned allocation, and a 32-byte set that
	// straddled two lines would cost its probes a second miss.
	_ [8]byte

	// memo holds the hash deltas of directory prefixes the scan has
	// walked, so a warm scan hashes only a path's last component.
	memo prefixMemo
}

// pccReg pairs a registered PCC with the credential it caches for.
type pccReg struct {
	cr *cred.Cred
	p  *PCC
}

var seedCounter atomic.Uint64

// Install wires a Core into k and returns it. Call once, before tasks run.
// A Core built from a given seed shares its key with every other built
// from the same one (sig.SharedKey); a drawn seed's key is its own.
func Install(k *vfs.Kernel, cfg Config) *Core {
	key := sig.SharedKey
	if cfg.Seed == 0 {
		cfg.Seed = 0x5ca1ab1e0ddba11 ^ (seedCounter.Add(1) * 0x9e3779b97f4a7c15)
		key = sig.NewKey
	}
	c := &Core{cfg: cfg, k: k, key: key(cfg.Seed)}
	c.memo.seed = cfg.Seed * 0x9e3779b97f4a7c15
	c.admitAfter = cfg.AdmitAfter
	if c.admitAfter == 0 {
		c.admitAfter = 2
	}
	k.SetHooks(c)
	return c
}

// registered snapshots the PCC registry.
func (c *Core) registered() []pccReg {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	return append([]pccReg(nil), c.pccs...)
}

// NewDentry implements vfs.Hooks. The fresh dentry's ValidGen starts at
// the current shootdown generation: it holds no state a past range
// shootdown could have staled, so there is nothing to climb for.
func (c *Core) NewDentry(d *vfs.Dentry) { fast(d).reset(c.shootGen.Load()) }

// pccFor returns the credential's PCC, creating it on first use (§4.1:
// PCCs attach to immutable, shared cred structures).
func (c *Core) pccFor(cr *cred.Cred) *PCC {
	if v := cr.CacheLoad(); v != nil {
		return v.(*PCC)
	}
	np := newPCC(c.cfg.PCCBytes)
	np.k = c.k
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
	for _, r := range c.registered() {
		r.p.Invalidate()
	}
}

// The epoch word counts mutation edges above epochEdge and mutations in
// flight below it. One parity bit cannot say the latter: two overlapping
// brackets leave it even while both are open. Each edge is still one
// atomic add — begin adds an edge and a mutation, end an edge less one —
// and any edge changes the word, so "unchanged" keeps meaning "no mutation
// began or ended". 2^16 mutations in flight at once would carry into the
// edge count; there are never nearly that many goroutines mutating.
const (
	epochEdge     = 1 << 16
	epochInFlight = epochEdge - 1
)

// quiescent reports whether epoch word e has no mutation in flight.
func quiescent(e uint64) bool { return e&epochInFlight == 0 }

// BeginSlow implements vfs.Hooks: capture the invalidation epoch.
func (c *Core) BeginSlow() uint64 { return c.epoch.Load() }

// tokenValid reports whether a slowpath result captured at token may be
// cached: the epoch must be quiescent and unchanged.
func (c *Core) tokenValid(token uint64) bool {
	cur := c.epoch.Load()
	return cur == token && quiescent(cur)
}

// BeginMutation implements vfs.Hooks (§3.2): bump the invalidation epoch
// and shoot down the subtree's fastpath state; the bracket it returns
// re-bumps the epoch when the mutation completes (EndMutation). The
// shootdown is timed into the reason's mutation-side histogram and
// journaled: one epoch_bump per edge, one seq_bump at the root.
func (c *Core) BeginMutation(d *vfs.Dentry, why vfs.Invalidation) vfs.Mutation {
	tel := c.k.Telemetry()
	epoch := c.epoch.Add(epochEdge + 1)
	c.k.Count(vfs.NInvalidations, 1)
	var start int64
	if tel != nil {
		tel.Emit(telemetry.JEpochBump, d.ID(), int64(epoch), why.Note())
		start = telemetry.Now()
	}
	c.shoot(d, why, tel)
	if tel != nil {
		tel.Record(invalHist(why), telemetry.Since(start))
	}
	return vfs.Mutation{Hooks: c, D: d, Why: why}
}

// EndMutation implements vfs.Hooks: the closing epoch bump.
func (c *Core) EndMutation(m vfs.Mutation) {
	epoch := c.epoch.Add(epochEdge - 1)
	if tel := c.k.Telemetry(); tel != nil {
		tel.Emit(telemetry.JEpochBump, m.D.ID(), int64(epoch), m.Why.Note()|telemetry.NoteEnd)
	}
}

// shoot is the one shootdown every mutation takes (DESIGN §5d). d's seq
// bump stales the PCC entries naming it. A structural change also drops
// d's table entry, signature state and cached symlink target; a permission
// change leaves them, because the path still names d (§3.2). If d has
// cached children it becomes the root of a range shootdown of that class —
// one generation bump and d's ShootMark — and every descendant is
// discharged by fresh() on its first probe, O(1) here instead of
// O(subtree); a structural discharge keeps the entries whose path still
// names them when the probe comes. That is sound because nothing consults
// a descendant's PCC entry, or advances its ValidGen, without calling
// fresh() on it first.
func (c *Core) shoot(d *vfs.Dentry, why vfs.Invalidation, tel *telemetry.Telemetry) {
	fd := fast(d)
	kids, perm := d.ChildCount(), why.PermOnly()
	if perm {
		c.bumpPublished(fd)
	} else {
		c.bumpSeq(fd)
		c.unpublish(d, telemetry.NoteShootdown)
	}
	if tel != nil {
		tel.Emit(telemetry.JSeqBump, d.ID(), int64(kids), why.Note())
	}
	if kids == 0 {
		return
	}
	gen := c.shootGen.Add(1)
	if why == vfs.InvalMount {
		for old := c.topoGen.Load(); old < gen && !c.topoGen.CompareAndSwap(old, gen); old = c.topoGen.Load() {
		}
	}
	c.k.Count(vfs.NBatchShootdowns, 1)
	fd.stampMark(gen, !perm)
	if tel != nil {
		tel.Emit(telemetry.JBatchShoot, d.ID(), int64(gen), why.Note())
	}
}

// The ShootMark word packs two shootdown generations: the newest range
// mark of either class in the high bits and, in the low markLagBits, how
// far behind it the newest *structural* mark trails. A permission change
// therefore never hides the rename stamped before it, and a rename's claim
// on the subtree ends with the descendants that predate it instead of
// turning every later chmod of the directory structural. The lag
// saturates: a structural mark older than markLagMax generations reads as
// that old exactly, which can only over-discard.
const (
	markLagBits = 20
	markLagMax  = 1<<markLagBits - 1
)

// markGens unpacks the mark: the newest generation of any class and the
// newest structural one, both 0 on a dentry never marked.
func (fd *fastDentry) markGens() (gen, structural uint64) {
	w := fd.ShootMark.Load()
	gen = w >> markLagBits
	return gen, gen - w&markLagMax
}

// stampMark records a range shootdown at generation gen. Mutations of one
// dentry can overlap (the bracket opens before any lock), hence the CAS.
func (fd *fastDentry) stampMark(gen uint64, structural bool) {
	for {
		old := fd.ShootMark.Load()
		oldGen := old >> markLagBits
		newGen := max(gen, oldGen)
		lag := uint64(0)
		if !structural {
			lag = min((old&markLagMax)+newGen-oldGen, markLagMax)
		}
		if fd.ShootMark.CompareAndSwap(old, newGen<<markLagBits|lag) {
			return
		}
	}
}

// bumpSeq advances the dentry's version, which stales every PCC entry
// naming it without touching any PCC.
func (c *Core) bumpSeq(fd *fastDentry) {
	c.k.Count(vfs.NSeqBumps, 1)
	if fd.Seq.Add(1)&pccSeqMask == 0 {
		// The truncated seq stored in PCC entries wrapped: stale entries
		// from 2^31 bumps ago would match again. Wipe all PCCs, as the
		// paper does for its 32-bit counters.
		c.invalidateAllPCCs()
	}
}

// bumpPublished is bumpSeq for a dentry that keeps its table entry: the
// entry is re-stamped with the new version under Mu, so "a live entry's
// PubSeq is its dentry's Seq" (the auditor's dlht_stale) still means a
// bump that should have unpublished did not.
func (c *Core) bumpPublished(fd *fastDentry) {
	fd.Mu.Lock()
	c.bumpSeq(fd)
	fd.PubSeq = fd.Seq.Load()
	fd.Mu.Unlock()
}

// unpublish drops what the fastpath holds for d under its current path:
// the table entry, the signature state (recomputed by the next
// population) and a cached symlink target.
func (c *Core) unpublish(d *vfs.Dentry, why telemetry.Note) {
	fd := fast(d)
	fd.Mu.Lock()
	c.dropEntry(d, fd, why)
	fd.State.Clear()
	fd.Target.Store(0)
	fd.Mu.Unlock()
}

// dropEntry removes d's table entry, if it has one, for the reason why
// names; with telemetry on the removal is timed and journaled. The caller
// holds fd.Mu.
func (c *Core) dropEntry(d *vfs.Dentry, fd *fastDentry, why telemetry.Note) {
	t := fd.InTable.Load()
	if t == nil {
		return
	}
	tel := c.k.Telemetry()
	var start int64
	if tel != nil {
		start = telemetry.Now()
	}
	t.Remove(d)
	fd.InTable.Store(nil)
	if tel != nil {
		tel.Record(telemetry.HistDLHTRemove, telemetry.Since(start))
		tel.Emit(telemetry.JDLHTRemove, d.ID(), int64(fd.Link.Hash()), why)
	}
}

// fresh reports whether d's table entry and signature state postdate every
// structural range shootdown covering it. The hot path is one
// load-and-compare; only a generation mismatch climbs the ancestor chain
// for a mark newer than d's ValidGen. A covered dentry gets here the
// per-dentry work the shootdown deferred, and the seq bump (staling its
// PCC entries) is always part of it. Under permission marks only, the bump
// is all of it: the path still names d, fresh returns true, and the
// caller's PCC probe — which must read the seq after this call — misses
// and re-checks the prefix. Under a structural mark the path may no longer
// name d, so fresh re-derives d's key from where d is now (keepUnmoved):
// a rename that put the directory back, or moved a sibling, leaves the key
// as it was, and the entry is kept exactly as a permission mark keeps it.
// Otherwise the table entry and state are dropped, and fresh returns false
// so the caller falls back to the slow walk.
//
// Either way ValidGen then advances to the generation read *before* the
// climb, and only if the invalidation epoch was quiescent and unchanged
// across it. Without that gate a racing mutation could stamp an ancestor's
// ShootMark after the climb had passed it, and the new ValidGen would
// mask that mark forever; with it, either the climb sees the mark (the
// epoch is bumped before the generation, seq-cst) or the epoch check
// fails, ValidGen stays, and the next probe climbs — and perhaps bumps —
// again. The generation current *after* the bump would not do: a probe
// descheduled between the two across a whole chmod would declare the
// dentry fresh against a mark its bump preceded (TestStressWalkVsChmod).
func (c *Core) fresh(d *vfs.Dentry) bool {
	fd := fast(d)
	gen := c.shootGen.Load()
	vg := fd.ValidGen.Load()
	if vg == gen {
		return true
	}
	e1 := c.epoch.Load()
	at, structural := c.markedAbove(d, vg)
	if at != nil {
		c.k.Count(vfs.NLazyShootdowns, 1)
		switch {
		case !structural:
			c.bumpPublished(fd)
		case c.keepUnmoved(d, vg, e1):
			c.k.Count(vfs.NKeptUnmoved, 1)
			structural = false
		default:
			c.bumpSeq(fd)
			c.unpublish(d, telemetry.NoteLazyShootdown)
		}
	}
	if quiescent(e1) && c.epoch.Load() == e1 {
		fd.ValidGen.Store(gen)
	}
	return !structural
}

// keepUnmoved discharges a structural mark over d without dropping d's
// table entry when d's canonical path, as the tree spells it now, still
// hashes to the entry's key: its parent's path state (pathState, which
// discharges the parent first) extended by d's name. The key is compared
// under Mu with the epoch read before fresh's climb re-checked, as publish
// re-checks its token, so no rename began or ended while the path was
// read; a match bumps the seq as bumpPublished does. Anything the parent
// chain cannot vouch for discards: a dentry validated before the newest
// mount or unmount mark (topoGen), a dead, alias or symlink dentry, a mount
// root, and every dentry while bind mounts or cloned namespaces exist —
// recheckPrefix's exclusions — and so does an epoch with a mutation in
// flight. A dentry with no entry discards too: its state is all there is
// to keep, and pathState recomputes it from the parent state computed
// here.
func (c *Core) keepUnmoved(d *vfs.Dentry, vg, e1 uint64) bool {
	fd := fast(d)
	mnt := fd.MntP.Load()
	if !quiescent(e1) || c.topoGen.Load() > vg || mnt == nil || d == mnt.Root() ||
		d.IsDead() || d.Flags()&vfs.DAlias != 0 || d.IsSymlink() || c.k.AliasingEpoch() != 0 {
		return false
	}
	p, name := d.Parent(), d.Name()
	if p == nil {
		return false
	}
	var st sig.State
	if !c.pathState(vfs.PathRef{Mnt: mnt, D: p}, &st, true) || !st.Fits(len(name)+1) {
		return false
	}
	st.AppendComponent(name)
	c.k.Count(vfs.NHashedBytes, int64(len(name)+1))
	fd.Mu.Lock()
	defer fd.Mu.Unlock()
	if fd.InTable.Load() == nil || !fd.State.Holds(&st) || c.epoch.Load() != e1 {
		return false
	}
	c.bumpSeq(fd)
	fd.PubSeq = fd.Seq.Load()
	return true
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
	mnt := fast(d).MntP.Load()
	for cur := d; ; {
		if mnt != nil && cur == mnt.Root() {
			cur, mnt = mnt.Mountpoint(), mnt.ParentMount()
		} else {
			cur = cur.Parent()
		}
		if cur == nil {
			break
		}
		if gen, sgen := fast(cur).markGens(); gen > vg {
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

// SweepStale walks every DLHT and lazily discards entries staled by batch
// shootdowns — the "one sweep" after which a batch-shot subtree must hold
// no live entries (the auditor runs this before its scans). Returns the
// number of entries discarded.
func (c *Core) SweepStale() int {
	n := 0
	c.forEachEntry(func(_ *dlht, d *vfs.Dentry) {
		if !c.fresh(d) {
			n++
		}
	})
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

// OnEvict implements vfs.Hooks: the dentry is dead. The seq bump stales
// the PCC entries naming it, and its table entry goes now: the chain runs
// through the dentry's own slot, which the sweeper will not retire while
// it is still linked.
func (c *Core) OnEvict(d *vfs.Dentry) {
	fast(d).Seq.Add(1)
	c.unpublish(d, telemetry.NoteReclaim)
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
	if ref.Mnt == nil || ref.D.IsDead() {
		return false
	}
	// A range shootdown leaves descendants' stored states in place; fresh
	// drops a stale one here rather than serve a pre-mutation signature.
	_ = c.fresh(ref.D)
	if fd.State.Load(c.key, dst) {
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
		c.k.Count(vfs.NHashedBytes, int64(len(name)+1))
	}
	if keep {
		// Under mu, as in publish: a mutation that moved the name or the
		// parent this state was read from bumped the epoch before its
		// shootdown took mu, so it is either seen here or clears the store.
		fd.Mu.Lock()
		if c.tokenValid(token) {
			fd.State.Store(dst)
			fd.MntP.Store(ref.Mnt)
		}
		fd.Mu.Unlock()
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
// fd.Mu, closing the window between a caller's tokenValid check and the
// insert. Without it, a mutation landing in that window could shoot down
// the (not yet present) entry and then have publish install a signature
// computed from the pre-mutation path — a stale DLHT entry. The shootdown
// bumps the epoch before taking fd.Mu, so whichever critical section runs
// second sees the other's work: either the shootdown removes our entry, or
// we observe the in-flight/advanced epoch and decline to insert.
func (c *Core) publish(dl *dlht, ref vfs.PathRef, st *sig.State, token uint64) {
	fd := fast(ref.D)
	if ref.D.IsDead() {
		return
	}
	if ref.D.Super().Caps().Revalidate {
		// §4.3: stateless network file systems must revalidate every
		// component at the server; a whole-path hit would skip that.
		return
	}
	// ValidGen is stamped below: discharge a pending range shootdown first
	// (it bumps seq), or the stamp would hide the mark from every later
	// fresh() and leave other credentials' PCC entries for d standing.
	_ = c.fresh(ref.D)
	fd.Mu.Lock()
	defer fd.Mu.Unlock()
	// Load the shootdown generation BEFORE validating the token: a batch
	// shootdown bumps the epoch before the generation, so if tokenValid
	// passes, gen is at least as new as any shootdown that could have
	// covered the state we are publishing — stamping ValidGen = gen below
	// can never mask a mark this entry should honour.
	gen := c.shootGen.Load()
	if !c.tokenValid(token) {
		c.k.Count(vfs.NStaleTokens, 1)
		return
	}
	if in := fd.InTable.Load(); in != nil {
		if in == dl && fd.State.Holds(st) {
			fd.MntP.Store(ref.Mnt)
			fd.ValidGen.Store(gen)
			return // already published under this signature
		}
		// Aliased path or namespace switch: most recent wins.
		c.dropEntry(ref.D, fd, telemetry.NoteResign)
		fd.Seq.Add(1)
	}
	// The state is the entry's key, and probes filter on it: it is stored
	// before the entry is linked. A dentry killed since the check above is
	// refused, and the kill's OnEvict has already run or waits on Mu.
	fd.State.Store(st)
	fd.MntP.Store(ref.Mnt)
	fd.PubSeq = fd.Seq.Load()
	fd.ValidGen.Store(gen)
	idx := st.Index()
	if !dl.Insert(uint64(idx), ref.D) {
		return
	}
	fd.InTable.Store(dl)
	c.k.Count(vfs.NPopulations, 1)
	if tel := c.k.Telemetry(); tel != nil {
		tel.Emit(telemetry.JDLHTInsert, ref.D.ID(), int64(idx), telemetry.NoteNone)
	}
}

// dentrySeq returns d's current fastpath version (for PCC entries).
func dentrySeq(d *vfs.Dentry) uint64 { return fast(d).Seq.Load() }
