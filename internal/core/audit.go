package core

import (
	"fmt"

	"dircache/internal/audit"
	"dircache/internal/sig"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// This file implements audit.Source: the fastpath half of the online
// invariant auditor. The checks need DLHT/PCC internals, so they live
// here and hand findings back through the interface.

// AuditStamp implements audit.Source. The vector is [invalidation epoch,
// DLHT population count]: every fastpath state change moves one of the
// two (mutations bump the epoch; publishes and alias re-signs bump
// populations while no mutation is in flight), so an audit pass bracketed
// by equal stamps raced no fastpath transition. Quiescent means no
// mutation is mid-flight.
func (c *Core) AuditStamp() ([]uint64, bool) {
	e := c.epoch.Load()
	return []uint64{e, uint64(c.stats.populations.Load())}, quiescent(e)
}

// auditRun accumulates findings up to a cap.
type auditRun struct {
	limit    int
	findings []audit.Finding
	checked  map[string]int
}

func (ar *auditRun) add(f audit.Finding) {
	if len(ar.findings) < ar.limit {
		ar.findings = append(ar.findings, f)
	}
}

// AuditFindings implements audit.Source. The checks, in order:
//
//   - dlht_in_lookup: no table entry is an in-lookup placeholder —
//     placeholders exist only under their parent's child map until the
//     backend answers, and publishing one would let the fastpath serve a
//     dentry whose inode/negativity is not yet decided.
//   - dlht_placement: every live table entry round-trips through its
//     dentry's fastpath state — the dentry believes it is in this table,
//     at this bucket, under this signature.
//   - dlht_stale: no entry's published version predates the dentry's
//     current version (ISSUE invariant "no DLHT entry's stored seq
//     predates its directory's last bump"): every seq bump either removes
//     the entry under the same lock or kills the dentry, so a live entry
//     with pubSeq != seq is a missed shootdown.
//   - dlht_sig: recomputing the entry's canonical-path signature from
//     scratch (climbing parents and mounts) reproduces the stored one.
//     Skipped while mount aliasing is active — canonical paths are then
//     legitimately in flux (§4.3 most-recent-wins re-signing).
//   - pcc_prefix: every live PCC entry's memoized prefix check re-passes
//     against current metadata (a permission change on any ancestor bumped
//     the dentry's seq or left a range mark that fresh() turns into that
//     bump before anything consults the entry — so entries still live
//     after fresh() must re-verify). Skipped once any task has chrooted:
//     entries memoize task-root-relative checks the auditor cannot
//     reconstruct.
//   - slab_liveness (DLHT half; the LRU/hash-chain half runs in the
//     auditor's kernel-side pass): every chain node whose
//     generation-tagged dentry ref resolves must name a dentry agreeing
//     it occupies that slot — no recycled slab slot is reachable.
//   - journal_dlht: per-subject journal striping retains each subject's
//     newest events, so if the newest retained insert/remove event for a
//     dentry is a remove, the dentry must not be in any table.
//   - dlht_fresh: after the pre-pass SweepStale, no live table entry may
//     still sit under an ancestor whose batch-shootdown mark postdates the
//     entry's validated generation (a range shootdown the sweep missed).
//   - journal_batch_shoot: the newest retained batch_shoot event for a
//     live dentry must have actually landed its mark — the root's
//     shootMark must be at least the journaled generation.
//   - journal_admission: if the newest retained admission/insert event
//     for a dentry is an admission deferral, the dentry must not be live
//     in any table (deferred entries never serve a fastpath hit; every
//     publish emits a dlht_insert, which supersedes the deferral).
func (c *Core) AuditFindings(limit int) ([]audit.Finding, map[string]int) {
	if limit <= 0 {
		limit = 1
	}
	ar := &auditRun{limit: limit, checked: map[string]int{}}

	// Discharge lazily-pending range shootdowns first: batch-shot entries
	// are not stale state, just undiscarded state, and the scans below
	// (placement, signature recompute) assume discarding has happened.
	// SweepStale moves neither the epoch nor the population count, so the
	// bracketing stamp stays valid.
	c.SweepStale()

	c.auditDLHTs(ar, c.k.AliasingEpoch() == 0)
	for _, dl := range c.k.DLHTs() {
		// slab_liveness, DLHT half: chain nodes whose packed dentry ref
		// resolves must agree with the dentry about its slot. (The LRU and
		// vfs hash-chain half runs in the auditor's kernel-side pass.)
		ar.checked["slab_liveness"] += c.auditSlabRefs(dl, func(d *vfs.Dentry, detail string) {
			ar.add(audit.Finding{Check: "slab_liveness", Ref: d.ID(), Path: d.PathTo(), Detail: detail})
		})
	}
	if c.k.ChrootCount() == 0 {
		c.auditPCCs(ar, c.registered())
	}
	c.auditJournal(ar)
	return ar.findings, ar.checked
}

// auditDLHTs checks placement, version, and (optionally) signature for
// every live entry of every table.
func (c *Core) auditDLHTs(ar *auditRun, aliasFree bool) {
	c.forEachEntry(func(dl *dlht, idx uint16, sg sig.Signature, d *vfs.Dentry) {
		ar.checked["dlht_in_lookup"]++
		if d.Flags()&vfs.DInLookup != 0 {
			ar.add(audit.Finding{Check: "dlht_in_lookup", Ref: d.ID(), Path: d.PathTo(),
				Detail: "in-lookup placeholder published to a DLHT (placeholders must stay invisible until resolved)"})
			return
		}
		ar.checked["dlht_placement"]++
		fd := fast(d)
		fd.Mu.Lock()
		inTable, fidx, fsg, pubSeq := fd.InTable, fd.Idx, fd.Sg, fd.PubSeq
		mnt := fd.MntP.Load()
		seq := fd.Seq.Load()
		fd.Mu.Unlock()
		switch {
		case inTable != dl:
			ar.add(audit.Finding{Check: "dlht_placement", Ref: d.ID(), Path: d.PathTo(),
				Detail: "dentry does not believe it is in this table"})
			return
		case fidx != idx || fsg != sg:
			ar.add(audit.Finding{Check: "dlht_placement", Ref: d.ID(), Path: d.PathTo(),
				Detail: fmt.Sprintf("dentry's recorded slot (bucket %d) disagrees with its table node (bucket %d)", fidx, idx)})
			return
		}
		ar.checked["dlht_stale"]++
		if pubSeq != seq {
			ar.add(audit.Finding{Check: "dlht_stale", Ref: d.ID(), Path: d.PathTo(),
				Detail: fmt.Sprintf("live table entry published at seq %d but dentry is at seq %d (missed shootdown)", pubSeq, seq)})
			return
		}
		ar.checked["dlht_fresh"]++
		vg := fd.ValidGen.Load()
		if at, _ := c.markedAbove(d, vg); at != nil {
			gen, sgen := fast(at).markGens()
			ar.add(audit.Finding{Check: "dlht_fresh", Ref: d.ID(), Path: d.PathTo(),
				Detail: fmt.Sprintf("live entry at generation %d under ancestor %q batch-shot at generation %d, structurally at %d (survived a sweep)", vg, at.PathTo(), gen, sgen)})
			return
		}
		if !aliasFree || mnt == nil {
			return
		}
		ar.checked["dlht_sig"]++
		st, ok := c.freshState(vfs.PathRef{Mnt: mnt, D: d}, 0)
		if !ok {
			return // racing detach; the stamp decides whether that matters
		}
		if ridx, rsg := st.Sum(); ridx != idx || rsg != sg {
			ar.add(audit.Finding{Check: "dlht_sig", Ref: d.ID(), Path: d.PathTo(),
				Detail: "stored signature does not match a from-scratch recompute of the canonical path"})
		}
	})
}

// freshState recomputes ref's canonical-path signature state from scratch
// — the same climb as pathState, but reading no cached state and
// writing none, so a poisoned cache cannot satisfy its own audit.
func (c *Core) freshState(ref vfs.PathRef, depth int) (sig.State, bool) {
	if depth > 512 || ref.D == nil || ref.Mnt == nil || ref.D.IsDead() {
		return sig.State{}, false
	}
	if ref.D == ref.Mnt.Root() {
		if ref.Mnt.ParentMount() == nil {
			return c.key.NewState(), true
		}
		return c.freshState(vfs.PathRef{Mnt: ref.Mnt.ParentMount(), D: ref.Mnt.Mountpoint()}, depth+1)
	}
	p := ref.D.Parent()
	if p == nil {
		return sig.State{}, false
	}
	pst, ok := c.freshState(vfs.PathRef{Mnt: ref.Mnt, D: p}, depth+1)
	if !ok {
		return sig.State{}, false
	}
	name := ref.D.Name()
	if !pst.Fits(len(name) + 1) {
		return sig.State{}, false
	}
	return pst.AppendString("/").AppendString(name), true
}

// auditPCCs re-verifies memoized prefix checks: for every valid PCC entry
// whose dentry resolves and whose version still matches, search
// permission on each ancestor directory must hold right now.
func (c *Core) auditPCCs(ar *auditRun, pccs []pccReg) {
	// PCC entries store only the dentry ID's low 32 bits; rebuild the
	// reverse map from the live cache. Truncation collisions (2^32
	// allocations) are marked ambiguous and skipped.
	byID := map[uint64]*vfs.Dentry{}
	c.k.ForEachDentry(func(d *vfs.Dentry) {
		if d.IsDead() {
			return
		}
		key := d.ID() & 0xffffffff
		if _, dup := byID[key]; dup {
			byID[key] = nil
		} else {
			byID[key] = d
		}
	})
	for _, reg := range pccs {
		t := reg.p.table.Load()
		for i := range t.sets {
			for w := 0; w < pccWays; w++ {
				v := t.sets[i].ways[w].Load()
				if v&pccValid == 0 {
					continue
				}
				d, ok := byID[v&0xffffffff]
				if !ok || d == nil {
					continue // evicted since, or ambiguous: entry is inert
				}
				// Judge the entry as a consumer would: fresh first. An
				// entry under a range mark is revoked though its seq still
				// matches (SweepStale only reaches dentries in a table), and
				// fresh bumps that seq here as it would before any consult.
				if !c.fresh(d) || dentrySeq(d)&pccSeqMask != (v>>32)&pccSeqMask {
					continue // stale entry: can never authorize anything
				}
				ar.checked["pcc_prefix"]++
				if name, ok := c.reverifyPrefix(reg, d); !ok {
					ar.add(audit.Finding{Check: "pcc_prefix", Ref: d.ID(), Path: d.PathTo(),
						Detail: fmt.Sprintf("memoized prefix check for cred %d fails at ancestor %q", reg.cr.ID(), name)})
				}
			}
		}
	}
}

// reverifyPrefix re-runs the prefix check the PCC memoized: search
// permission for the credential on every ancestor directory of d, up to
// the namespace root (climbing mounts). Negative ancestors (deep-negative
// chains) carry no inode and no permission of their own; the memoized
// check covered the real directories above them, which this climb still
// reaches. A non-directory ancestor — the file an ENOTDIR negative hangs
// below — was never searched either: the walk answers ENOTDIR before it
// asks. Returns the failing ancestor's name on violation.
func (c *Core) reverifyPrefix(reg pccReg, d *vfs.Dentry) (string, bool) {
	mnt := fast(d).MntP.Load()
	if mnt == nil {
		return "", true // never published; nothing to reconstruct
	}
	cur := d
	for depth := 0; depth < 512; depth++ {
		if cur == mnt.Root() {
			if mnt.ParentMount() == nil {
				return "", true
			}
			cur, mnt = mnt.Mountpoint(), mnt.ParentMount()
			continue
		}
		p := cur.Parent()
		if p == nil {
			return "", true // detached mid-climb; stamp decides
		}
		if ino := p.Inode(); ino != nil && ino.Mode().IsDir() {
			if c.k.CheckExec(reg.cr, mnt, ino) != nil {
				return p.Name(), false
			}
		}
		cur = p
	}
	return "", true
}

// auditJournal cross-checks the event journal against the live tables.
// The journal's per-subject striping drops oldest-first, so each
// subject's newest insert/remove event is always retained; if that
// newest event is a remove, no table may still hold the dentry. The live
// set is snapshotted before the journal is dumped: an insert landing
// between the two snapshots yields a newer insert event, never a false
// positive. Requires the journal (skipped when telemetry is off).
func (c *Core) auditJournal(ar *auditRun) {
	tel := c.tele()
	if tel == nil {
		return
	}
	live := map[uint64]struct{}{}
	c.forEachEntry(func(_ *dlht, _ uint16, _ sig.Signature, d *vfs.Dentry) {
		live[d.ID()] = struct{}{}
	})
	events, _ := tel.Events()
	latest := map[uint64]telemetry.JournalKind{}
	admLatest := map[uint64]telemetry.JournalKind{}
	batchGen := map[uint64]int64{}
	for _, ev := range events { // ID-sorted: later wins
		switch ev.Kind {
		case telemetry.JDLHTInsert, telemetry.JDLHTRemove:
			latest[ev.Ref] = ev.Kind
			admLatest[ev.Ref] = ev.Kind
		case telemetry.JAdmitDefer:
			admLatest[ev.Ref] = ev.Kind
		case telemetry.JBatchShoot:
			batchGen[ev.Ref] = ev.Aux
		}
	}
	for ref, kind := range latest {
		ar.checked["journal_dlht"]++
		if kind == telemetry.JDLHTRemove {
			if _, inTable := live[ref]; inTable {
				ar.add(audit.Finding{Check: "journal_dlht", Ref: ref,
					Detail: "journal's newest event for this dentry is a DLHT remove, but a table still holds it"})
			}
		}
	}
	// Deferred entries never serve a fastpath hit: a dentry whose newest
	// retained admission/insert event is a deferral has not been published
	// since, so no table may hold it. (Both kinds stripe by the dentry, so
	// drop-oldest retains their relative order.)
	for ref, kind := range admLatest {
		if kind != telemetry.JAdmitDefer {
			continue
		}
		ar.checked["journal_admission"]++
		if _, inTable := live[ref]; inTable {
			ar.add(audit.Finding{Check: "journal_admission", Ref: ref,
				Detail: "journal's newest admission event for this dentry is a deferral, but a table holds it (deferred entry served a hit)"})
		}
	}
	// Every journaled range shootdown must have landed its mark: the
	// journal is emitted on the batch path right where the mark is stored,
	// so a live subtree root whose shootMark predates the journaled
	// generation means the shootdown never became visible to probes.
	c.auditBatchMarks(ar, batchGen)
}

// auditBatchMarks cross-checks batch_shoot journal events against live
// shootMark state (see auditJournal).
func (c *Core) auditBatchMarks(ar *auditRun, batchGen map[uint64]int64) {
	if len(batchGen) == 0 {
		return
	}
	byID := map[uint64]*vfs.Dentry{}
	c.k.ForEachDentry(func(d *vfs.Dentry) {
		if _, want := batchGen[d.ID()]; want {
			byID[d.ID()] = d
		}
	})
	for ref, gen := range batchGen {
		d, ok := byID[ref]
		if !ok || d.IsDead() {
			continue // root evicted since; its mark is moot
		}
		ar.checked["journal_batch_shoot"]++
		if marked, _ := fast(d).markGens(); marked < uint64(gen) {
			ar.add(audit.Finding{Check: "journal_batch_shoot", Ref: ref, Path: d.PathTo(),
				Detail: fmt.Sprintf("journal records a batch shootdown at generation %d but the root's mark is %d (missed batch mark)", gen, marked)})
		}
	}
}
