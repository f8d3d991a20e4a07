// Package audit is the online invariant auditor ("dcache doctor"): it
// cross-checks the coherence event journal and the live cache structures
// against the invariants the paper's design depends on, while the system
// keeps running. A pass scans without stopping the world; it is trusted
// only when the coherence stamps (vfs.Kernel.CoherenceStamp plus the
// fastpath Source's AuditStamp) are quiescent and unchanged across the
// scan, so a pass that raced a mutation reports Valid == false instead of
// a false alarm.
package audit

import (
	"fmt"
	"sort"
	"time"

	"dircache/internal/fsapi"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// Finding is one observed invariant violation.
type Finding struct {
	// Check names the violated invariant (e.g. "dlht_placement").
	Check string `json:"check"`
	// Ref is the subject dentry ID (0 when not dentry-scoped).
	Ref uint64 `json:"ref,omitempty"`
	// Path locates the subject when it could be rendered.
	Path string `json:"path,omitempty"`
	// Detail says what was expected and what was seen.
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	s := f.Check
	if f.Path != "" {
		s += " " + f.Path
	} else if f.Ref != 0 {
		s += fmt.Sprintf(" #%d", f.Ref)
	}
	return s + ": " + f.Detail
}

// Source is the fastpath half of the audit, implemented by core.Core. It
// is an interface so this package depends only on the VFS: the checks
// that need DLHT/PCC internals run inside internal/core and hand their
// findings back through it.
type Source interface {
	// AuditStamp returns the fastpath coherence stamp: a vector of
	// counters that change whenever fastpath state changes (invalidation
	// epoch, DLHT population count), and whether the fastpath is
	// quiescent right now (no mutation in flight).
	AuditStamp() (vals []uint64, quiet bool)
	// AuditFindings runs the fastpath-side checks, returning at most
	// limit findings plus a per-check count of entities examined.
	AuditFindings(limit int) ([]Finding, map[string]int)
}

// Report is the outcome of one audit pass.
type Report struct {
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Valid reports whether the pass can be trusted: the coherence
	// stamps were quiescent and unchanged across the whole scan. An
	// invalid pass proves nothing either way — rerun (RunUntilValid).
	Valid bool `json:"valid"`
	// Checked counts entities examined per check name.
	Checked  map[string]int `json:"checked"`
	Findings []Finding      `json:"findings"`
}

// Violations is the number of findings (0 on a clean pass).
func (r Report) Violations() int { return len(r.Findings) }

// Summary renders the report as a one-paragraph verdict.
func (r Report) Summary() string {
	names := make([]string, 0, len(r.Checked))
	total := 0
	for name, n := range r.Checked {
		names = append(names, name)
		total += n
	}
	sort.Strings(names)
	s := fmt.Sprintf("audit: %d checks over %d entities in %s",
		len(names), total, r.Duration.Round(time.Microsecond))
	if !r.Valid {
		s += " (INVALID: raced a mutation, rerun)"
	}
	if len(r.Findings) == 0 {
		return s + ": no violations"
	}
	s += fmt.Sprintf(": %d VIOLATIONS", len(r.Findings))
	for i, f := range r.Findings {
		if i == 8 {
			s += fmt.Sprintf("\n  ... and %d more", len(r.Findings)-i)
			break
		}
		s += "\n  " + f.String()
	}
	return s
}

// Auditor runs invariant passes over one kernel + fastpath pair.
type Auditor struct {
	k   *vfs.Kernel
	src Source
	// Limit caps findings per pass (default 64): a corrupted cache
	// yields one finding per entry, and the first few localize the bug.
	Limit int
}

// New builds an auditor. src may be nil when no fastpath is installed;
// the VFS-level checks still run.
func New(k *vfs.Kernel, src Source) *Auditor {
	return &Auditor{k: k, src: src, Limit: 64}
}

// stamp captures both coherence stamps; ok means everything quiescent.
func (a *Auditor) stamp() (vals []uint64, ok bool) {
	seq, quiet := a.k.CoherenceStamp()
	vals = append(vals, seq)
	ok = quiet
	if a.src != nil {
		sv, sq := a.src.AuditStamp()
		vals = append(vals, sv...)
		ok = ok && sq
	}
	return vals, ok
}

func stampsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Run executes one audit pass. The checks, in order:
//
//   - dead_in_lru: no dead dentry is still charged to the LRU.
//   - lru_census: the LRU's count equals the number of cached dentries
//     the scan found (membership is a flag in the dentry's slab slot, the
//     count a separate word: an add, remove or claim counted twice or not
//     at all shows here and nowhere else).
//   - detached: every live cached dentry is reachable from its parent's
//     child map under its own name.
//   - slab_liveness: every child-map entry and hash-chain reference
//     resolves against the slab arenas under the generation discipline —
//     no live structure reaches a free or recycled slot, and no resolving
//     reference disagrees with its dentry about identity (an ABA
//     breach). The pass drains the lazy teardown queue first
//     (ReclaimAll) so legitimately-dead leftovers don't mask real bugs.
//   - dir_complete: a DIR_COMPLETE directory's cached children exactly
//     cover the low-level FS listing (§5.1's contract — serving readdir
//     from the cache is only sound if nothing is missing or extra).
//   - journal_dir_complete: the latest retained completeness event for a
//     directory agrees with its live DIR_COMPLETE flag (journal is
//     drop-oldest per subject, so the latest retained event is current).
//   - the Source's fastpath checks (DLHT placement, signature recompute,
//     PCC prefix re-verification, journal/DLHT cross-check).
func (a *Auditor) Run() Report {
	r := Report{Start: time.Now(), Checked: map[string]int{}}
	// Settle the lazy-teardown machinery before stamping: draining limbo
	// and recycling grace-elapsed slots here means the slab_liveness scan
	// distinguishes "awaiting sweep" from "prematurely freed", and the
	// drain's own structure edits happen before the bracketing stamp.
	a.k.ReclaimAll()
	before, quietBefore := a.stamp()

	a.checkLRU(&r)
	a.checkSlabLiveness(&r)
	a.checkDirComplete(&r)
	a.checkJournalDirComplete(&r)
	if a.src != nil {
		fs, checked := a.src.AuditFindings(a.Limit - len(r.Findings))
		r.Findings = append(r.Findings, fs...)
		for name, n := range checked {
			r.Checked[name] += n
		}
	}

	after, quietAfter := a.stamp()
	r.Valid = quietBefore && quietAfter && stampsEqual(before, after)
	r.Duration = time.Since(r.Start)
	return r
}

// RunUntilValid reruns Run until a pass is valid or attempts are
// exhausted; the last report is returned either way. Under ordinary
// mutation rates a couple of attempts suffice — passes are short and the
// stamp only moves while a mutation overlaps the scan.
func (a *Auditor) RunUntilValid(attempts int) Report {
	var r Report
	for i := 0; i < attempts; i++ {
		r = a.Run()
		if r.Valid {
			return r
		}
	}
	return r
}

// LoopResult summarizes a continuous audit: passes driven beside a
// mutation storm, of which the valid ones must hold zero violations.
type LoopResult struct {
	Passes     int
	Valid      int
	Violations int
	Findings   []Finding // first few, deduplicated by check+ref
}

// add records a finding, respecting the pass limit.
func (a *Auditor) add(r *Report, f Finding) {
	if len(r.Findings) < a.Limit {
		r.Findings = append(r.Findings, f)
	}
}

// checkLRU walks the cache once for the structural invariants that need
// no FS access: no dead dentry lingers in the LRU, every live non-root
// dentry is its parent's child of that name, and the walk met as many
// dentries as the LRU counts (both read between the pass's two stamps:
// every add, remove and claim sits inside a cacheMut bracket).
func (a *Auditor) checkLRU(r *Report) {
	census := 0
	a.k.ForEachDentry(func(d *vfs.Dentry) {
		census++
		r.Checked["dead_in_lru"]++
		if d.IsDead() {
			a.add(r, Finding{Check: "dead_in_lru", Ref: d.ID(),
				Detail: "dead dentry still charged to the LRU"})
			return
		}
		p := d.Parent()
		if p == nil {
			return // superblock root
		}
		r.Checked["detached"]++
		if c := p.Child(d.Name()); c != d {
			a.add(r, Finding{Check: "detached", Ref: d.ID(), Path: d.PathTo(),
				Detail: fmt.Sprintf("parent's child %q does not resolve to this dentry", d.Name())})
		}
	})
	r.Checked["lru_census"]++
	if n := a.k.DentryCount(); n != census {
		a.add(r, Finding{Check: "lru_census",
			Detail: fmt.Sprintf("LRU counts %d dentries, the slab holds %d in the LRU", n, census)})
	}
}

// checkSlabLiveness delegates to the kernel's arena-reference scan: every
// child-map entry must resolve to a live slot of matching generation, and
// every hash-chain reference that resolves must agree with its dentry
// about identity. Unresolvable chain refs are lazy-teardown leftovers and pass;
// Run's ReclaimAll pre-pass keeps them from hiding anything.
func (a *Auditor) checkSlabLiveness(r *Report) {
	limit := a.Limit - len(r.Findings)
	if limit <= 0 {
		return
	}
	checked, msgs := a.k.CheckSlabLiveness(limit)
	r.Checked["slab_liveness"] += checked
	for _, msg := range msgs {
		a.add(r, Finding{Check: "slab_liveness", Detail: msg})
	}
}

// checkDirComplete verifies §5.1's completeness contract against the
// low-level file system: for every DIR_COMPLETE directory, the cached
// child set and the FS listing must name exactly the same entries.
func (a *Auditor) checkDirComplete(r *Report) {
	a.k.ForEachDentry(func(d *vfs.Dentry) {
		fl := d.Flags()
		if fl&vfs.DComplete == 0 || fl&vfs.DDead != 0 || d.IsNegative() || !d.IsDir() {
			return
		}
		ino := d.Inode()
		if ino == nil {
			return
		}
		r.Checked["dir_complete"]++
		names, err := listAll(d.Super().FS(), ino.ID())
		if err != nil {
			return // FS refused the listing; nothing to compare
		}
		for name := range names {
			c := d.Child(name)
			if c != nil && c.Flags()&vfs.DInLookup != 0 {
				continue // unresolved placeholder: not yet decided either way
			}
			if c == nil || c.IsDead() || c.IsNegative() {
				a.add(r, Finding{Check: "dir_complete", Ref: d.ID(), Path: d.PathTo(),
					Detail: fmt.Sprintf("FS entry %q missing from complete directory's cache", name)})
			}
		}
		d.EachChild(func(c *vfs.Dentry) {
			cfl := c.Flags()
			// In-lookup placeholders are unresolved: their presence or
			// absence in the FS listing is not yet decided, so they are
			// neither missing nor extra.
			if cfl&(vfs.DNegative|vfs.DAlias|vfs.DDead|vfs.DInLookup) != 0 {
				return
			}
			if _, ok := names[c.Name()]; !ok {
				a.add(r, Finding{Check: "dir_complete", Ref: d.ID(), Path: d.PathTo(),
					Detail: fmt.Sprintf("cached child %q not present in FS listing", c.Name())})
			}
		})
	})
}

// listAll drains a low-level FS directory listing into a name set.
func listAll(fs fsapi.FileSystem, id fsapi.NodeID) (map[string]struct{}, error) {
	names := map[string]struct{}{}
	cookie := uint64(0)
	for {
		ents, next, eof, err := fs.ReadDir(id, cookie, 512)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			names[e.Name] = struct{}{}
		}
		if eof {
			return names, nil
		}
		cookie = next
	}
}

// checkJournalDirComplete cross-checks the event journal against live
// DIR_COMPLETE flags: the journal's per-subject striping drops oldest
// first, so the latest retained dir_complete/dir_incomplete event for a
// directory is its true latest transition, and must match the flag. Only
// meaningful when telemetry has been enabled since kernel start (an
// emission gap would leave stale latest events), so the check silently
// skips when the journal is off.
func (a *Auditor) checkJournalDirComplete(r *Report) {
	tel := a.k.Telemetry()
	if !tel.On() {
		return
	}
	// Snapshot live flags FIRST, then dump: an event recorded after the
	// dump cannot refer to a flag state captured before it, and a
	// transition between the two snapshots invalidates the pass stamp.
	type dirState struct {
		complete bool
		dead     bool
	}
	live := map[uint64]dirState{}
	a.k.ForEachDentry(func(d *vfs.Dentry) {
		if d.IsDir() && !d.IsNegative() {
			live[d.ID()] = dirState{
				complete: d.Flags()&vfs.DComplete != 0,
				dead:     d.IsDead(),
			}
		}
	})
	events, _ := tel.Events()
	latest := map[uint64]telemetry.JournalKind{}
	for _, ev := range events { // events are ID-sorted: later wins
		if ev.Kind == telemetry.JDirComplete || ev.Kind == telemetry.JDirIncomplete {
			latest[ev.Ref] = ev.Kind
		}
	}
	for ref, kind := range latest {
		st, ok := live[ref]
		if !ok || st.dead {
			continue // evicted since: no live flag to compare
		}
		r.Checked["journal_dir_complete"]++
		want := kind == telemetry.JDirComplete
		if st.complete != want {
			a.add(r, Finding{Check: "journal_dir_complete", Ref: ref,
				Detail: fmt.Sprintf("journal says complete=%v but live flag is %v", want, st.complete)})
		}
	}
}
