package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dircache"
	"dircache/internal/telemetry"
)

// Coherence measures the observability subsystem itself: it drives a
// mutation-heavy workload (walks racing renames, chmods, and a file
// replaced and unlinked over and over) against the optimized cache with the event
// journal on, and reports coherence event rates by kind, journal drop
// rate, and the verdict of the online invariant auditor — run
// continuously during the storm and once more at quiescence.
func Coherence(sc Scale) (*Report, error) {
	sys := dircache.New(dircache.Optimized())
	sys.EnableTelemetry(dircache.TelemetryOptions{})
	p := sys.Start(dircache.RootCreds())

	if err := coherenceTree(p); err != nil {
		return nil, err
	}

	// The storm: walkers hammer stable and churning paths while a mutator
	// renames a subtree back and forth, flips permissions, and replaces and
	// unlinks a file — every mutation kind the journal records. The run is
	// op-bounded (not wall-clock-bounded) so every participant makes
	// progress even on a single-CPU box; Gosched keeps the hot loops from
	// starving each other there.
	iters := sc.Ops / 10 // small: 500, paper: 5000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := sys.Start(dircache.RootCreds())
			paths := []string{
				"/src/a/b/c",
				fmt.Sprintf("/src/d%d/f%d", w%coherenceWidth, w%coherenceWidth),
				"/src/enoent",
			}
			if w == 0 {
				paths = append(paths, "/src/churn")
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q.Stat(paths[i%len(paths)])
				runtime.Gosched()
			}
		}(w)
	}
	mutDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(mutDone)
		q := sys.Start(dircache.RootCreds())
		for i := 0; i < iters; i++ {
			coherenceMutate(q, i)
			runtime.Gosched()
		}
	}()

	// The auditor runs beside the storm (its whole point) and once more
	// at quiescence for the authoritative verdict.
	aud := sys.NewAuditor()
	audStop := make(chan struct{})
	var loop struct {
		passes, valid, violations int
		findings                  []dircache.AuditFinding
	}
	var audWG sync.WaitGroup
	audWG.Add(1)
	go func() {
		defer audWG.Done()
		for {
			select {
			case <-audStop:
				return
			default:
			}
			r := aud.Run()
			loop.passes++
			if r.Valid {
				loop.valid++
				loop.violations += r.Violations()
				loop.findings = append(loop.findings, r.Findings...)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	t0 := time.Now()
	<-mutDone
	elapsed := time.Since(t0)
	close(stop)
	wg.Wait()
	close(audStop)
	audWG.Wait()
	final := sys.Doctor()

	tel := sys.Telemetry()
	counts := tel.EventCounts()
	dropped := tel.EventsDropped()

	r := newReport("coherence", "coherence event journal and invariant audit under mutation storm",
		"event kind", "count", "events/sec")
	var kinds []telemetry.JournalKind
	var total uint64
	for k, n := range counts {
		if n > 0 {
			kinds = append(kinds, telemetry.JournalKind(k))
		}
		total += n
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	secs := elapsed.Seconds()
	for _, k := range kinds {
		n, name := counts[k], k.String()
		r.add(name, fmt.Sprintf("%d", n), fmt.Sprintf("%.0f", float64(n)/secs))
		r.put("events/"+name, float64(n))
		r.put("rate/"+name, float64(n)/secs)
	}
	dropRate := 0.0
	if total > 0 {
		dropRate = float64(dropped) / float64(total)
	}
	r.put("journal/total", float64(total))
	r.put("journal/dropped", float64(dropped))
	r.put("journal/drop_rate", dropRate)
	r.put("audit/passes", float64(loop.passes))
	r.put("audit/valid_passes", float64(loop.valid))
	r.put("audit/violations", float64(loop.violations))
	r.put("audit/final_valid", b2f(final.Valid))
	r.put("audit/final_violations", float64(final.Violations()))

	r.note("journal: %d events emitted, %d dropped (%.1f%% drop rate)",
		total, dropped, dropRate*100)
	r.note("auditor during storm: %d/%d passes valid, %d violations",
		loop.valid, loop.passes, loop.violations)
	verdict := "PASS"
	if !final.Valid || final.Violations() > 0 {
		verdict = "FAIL"
	}
	r.note("auditor at quiescence: %s (valid=%v, %d violations)",
		verdict, final.Valid, final.Violations())
	// A bare count cannot tell an auditor false alarm from a stale entry:
	// name every finding (storm passes first, then the quiescent pass).
	findings := append(loop.findings, final.Findings...)
	for i, f := range findings {
		if i == 16 {
			r.note("... and %d more findings", len(findings)-i)
			break
		}
		r.note("finding: check=%s ref=%d path=%q: %s", f.Check, f.Ref, f.Path, f.Detail)
	}
	return r, nil
}

// coherenceWidth is the storm tree's fanout: /src/d0../src/d7, eight files
// each.
const coherenceWidth = 8

// coherenceTree builds the storm's tree and publishes /src/churn.
func coherenceTree(p *dircache.Process) error {
	if err := p.MkdirAll("/src/a/b/c", 0o755); err != nil {
		return err
	}
	for i := 0; i < coherenceWidth; i++ {
		dir := fmt.Sprintf("/src/d%d", i)
		if err := p.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for j := 0; j < coherenceWidth; j++ {
			if err := p.WriteFile(fmt.Sprintf("%s/f%d", dir, j), []byte("x"), 0o644); err != nil {
				return err
			}
		}
	}
	if err := p.WriteFile("/src/churn", []byte("x"), 0o644); err != nil {
		return err
	}
	for i := 0; i < 2; i++ { // past admission control
		if _, err := p.Stat("/src/churn"); err != nil {
			return err
		}
	}
	return nil
}

// coherenceMutate is one round of the storm's mutator. /src/churn starts
// out published, so the first round's rename over it removes a table entry
// whatever the schedule: a rename shoots down the dentry it replaces. The
// unlink that follows need not: it turns the dentry negative in place and
// keeps its entry (§5.2), which then answers ENOENT on the fastpath while
// walker 0 races it. The round trip of /src/a need not remove any entry
// either: it puts every path below it back, and a structural mark keeps
// the entries whose path still names them.
func coherenceMutate(q *dircache.Process, i int) {
	q.Rename("/src/a", "/src/a2")
	q.Rename("/src/a2", "/src/a")
	q.Chmod("/src/d0", 0o700+uint32(i%2)*0o055)
	q.WriteFile("/src/churn.new", []byte("x"), 0o644)
	q.Rename("/src/churn.new", "/src/churn")
	q.Unlink("/src/churn")
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
