package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dircache"
)

// Coherence measures the observability subsystem itself: it drives a
// mutation-heavy workload (walks racing renames, chmods, and create/unlink
// churn) against the optimized cache with the event journal on, and
// reports coherence event rates by kind, journal drop rate, and the
// verdict of the online invariant auditor — run continuously during the
// storm and once more at quiescence.
func Coherence(sc Scale) (*Report, error) {
	cfg := dircache.Optimized()
	cfg.Telemetry = dircache.TelemetryOptions{Enabled: true}
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())

	const width = 8
	if err := p.MkdirAll("/src/a/b/c", 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < width; i++ {
		dir := fmt.Sprintf("/src/d%d", i)
		if err := p.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		for j := 0; j < width; j++ {
			if err := p.WriteFile(fmt.Sprintf("%s/f%d", dir, j), []byte("x"), 0o644); err != nil {
				return nil, err
			}
		}
	}

	// The storm: walkers hammer stable and churning paths while a mutator
	// renames a subtree back and forth, flips permissions, and
	// creates/unlinks — every mutation kind the journal records. The run
	// is op-bounded (not wall-clock-bounded) so every participant makes
	// progress even on a single-CPU box; Gosched keeps the hot loops from
	// starving each other there.
	iters := 100 * int(sc.MinMeasure/time.Millisecond) // small: 500, paper: 5000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := sys.Start(dircache.RootCreds())
			paths := []string{
				"/src/a/b/c",
				fmt.Sprintf("/src/d%d/f%d", w%width, w%width),
				"/src/enoent",
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
	go func() { // mutation storm: subtree shootdowns
		defer wg.Done()
		defer close(mutDone)
		q := sys.Start(dircache.RootCreds())
		for i := 0; i < iters; i++ {
			q.Rename("/src/a", "/src/a2")
			q.Rename("/src/a2", "/src/a")
			q.Chmod("/src/d0", 0o700+uint32(i%2)*0o055)
			q.WriteFile("/src/churn", []byte("x"), 0o644)
			q.Unlink("/src/churn")
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
	kinds := make([]string, 0, len(counts))
	var total uint64
	for k, n := range counts {
		kinds = append(kinds, k)
		total += n
	}
	sort.Strings(kinds)
	secs := elapsed.Seconds()
	for _, k := range kinds {
		n := counts[k]
		r.add(k, fmt.Sprintf("%d", n), fmt.Sprintf("%.0f", float64(n)/secs))
		r.put("events/"+k, float64(n))
		r.put("rate/"+k, float64(n)/secs)
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

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
