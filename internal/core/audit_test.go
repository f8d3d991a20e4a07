package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dircache/internal/audit"
	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// auditFixture builds an optimized kernel with telemetry attached from
// the start (the journal cross-checks assume no emission gap) and a
// small warm tree.
func auditFixture(t testing.TB) (*vfs.Kernel, *Core, *vfs.Task) {
	t.Helper()
	k := vfs.NewKernel(vfs.Config{
		CacheCapacity:       128,
		DirCompleteness:     true,
		AggressiveNegatives: true,
	}, memfs.New(memfs.Options{}))
	tel := telemetry.New(telemetry.Options{})
	tel.Enable()
	k.SetTelemetry(tel)
	c := Install(k, Config{Seed: 42, DeepNegatives: true, SymlinkAliases: true})
	root := k.NewTask(cred.Root())
	for _, p := range []string{"/a", "/a/b", "/a/b/c", "/mv", "/tmp"} {
		if err := root.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Create("/a/b/c/file", 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := root.Create(fmt.Sprintf("/tmp/s%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return k, c, root
}

// TestAuditInvariantDuringFastpathStress runs the full auditor (VFS
// checks plus the fastpath Source) continuously while fastpath walkers
// race rename/chmod/Shrink traffic. Valid passes must be clean
// throughout, and a quiescent pass after the storm must exercise the
// fastpath checks and find nothing.
func TestAuditInvariantDuringFastpathStress(t *testing.T) {
	k, c, root := auditFixture(t)

	iters := 2000
	if testing.Short() {
		iters = 200
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			task := k.NewTask(cred.Root())
			for i := 0; i < iters; i++ {
				if _, err := task.Stat("/a/b/c/file"); err != nil {
					panic(fmt.Sprintf("stable path vanished: %v", err))
				}
				task.Stat(fmt.Sprintf("/tmp/s%03d", (seed*17+i)%32))
				if _, err := task.Stat("/a/b/c/enoent"); err == nil {
					panic("missing path resolved")
				}
				task.Stat("/mv/dir") // flaps between ENOENT and hit
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		task := k.NewTask(cred.Root())
		task.Mkdir("/mvsrc", 0o755)
		for i := 0; i < iters; i++ {
			task.Rename("/mvsrc", "/mv/dir")
			task.Rename("/mv/dir", "/mvsrc")
			task.Chmod("/a/b", fsapi.Mode(0o755))
			task.Chmod("/a/b", fsapi.Mode(0o711))
			if i%4 == 0 {
				k.Shrink(4)
			}
		}
	}()

	// Drive passes directly (run first, then check stop) so at least one
	// pass lands inside the storm even when the single-CPU scheduler
	// delays this goroutine until the storm's tail.
	aud := audit.New(k, c)
	stop := make(chan struct{})
	var loop audit.LoopResult
	var audWG sync.WaitGroup
	audWG.Add(1)
	go func() {
		defer audWG.Done()
		for {
			res := aud.Run()
			loop.Passes++
			if res.Valid {
				loop.Valid++
				loop.Violations += res.Violations()
				loop.Findings = append(loop.Findings, res.Findings...)
			}
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	wg.Wait()
	close(stop)
	audWG.Wait()

	if loop.Passes == 0 {
		t.Fatal("auditor never ran a pass during the storm")
	}
	if loop.Violations != 0 {
		t.Fatalf("auditor found %d violations during stress (valid passes %d/%d): %v",
			loop.Violations, loop.Valid, loop.Passes, loop.Findings)
	}

	r := aud.RunUntilValid(10)
	if !r.Valid {
		t.Fatalf("no valid audit pass at quiescence: %s", r.Summary())
	}
	if r.Violations() != 0 {
		t.Fatalf("violations at quiescence: %s", r.Summary())
	}
	for _, check := range []string{"dlht_placement", "dlht_stale", "journal_dlht"} {
		if r.Checked[check] == 0 {
			t.Fatalf("audit never exercised %s: %v", check, r.Checked)
		}
	}
	if _, err := root.Stat("/a/b/c/file"); err != nil {
		t.Fatalf("tree damaged by stress run: %v", err)
	}
}

// TestAuditCatchesInjectedStaleShootdown proves the auditor detects a
// real coherence bug: a version counter bumped without the table entry
// going with it — bumpSeq without unpublish, which shoot and fresh must
// never do and the dlht_stale invariant exists to catch. The audit must flag it; a clean re-walk republishing is NOT
// enough — the stale entries must go — and a real shootdown over the same
// subtree, discharged by the auditor's sweep, must restore a clean
// verdict.
func TestAuditCatchesInjectedStaleShootdown(t *testing.T) {
	k, c, root := auditFixture(t)

	// Warm the fastpath so the DLHT actually holds the subtree.
	for i := 0; i < 3; i++ {
		if _, err := root.Stat("/a/b/c/file"); err != nil {
			t.Fatal(err)
		}
		root.Stat("/a/b/c")
	}
	if c.Stats().Populations == 0 {
		t.Fatal("fastpath never populated; nothing to corrupt")
	}

	aud := audit.New(k, c)
	if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit not clean before injection: %s", r.Summary())
	}

	// Inject: bump every published descendant's seq and leave its entry
	// in the table, published at the old version.
	for _, p := range []string{"/a/b/c", "/a/b/c/file"} {
		ref, err := root.Walk(p, vfs.WalkNoFast)
		if err != nil {
			t.Fatal(err)
		}
		c.bumpSeq(fast(ref.D))
	}

	r := aud.RunUntilValid(5)
	if !r.Valid {
		t.Fatalf("no valid audit pass after injection: %s", r.Summary())
	}
	stale := 0
	for _, f := range r.Findings {
		if f.Check == "dlht_stale" {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("auditor missed the injected stale-DLHT bug: %s", r.Summary())
	}

	// Repair: a real invalidation over the same subtree removes the
	// stale entries; the auditor must go clean again.
	if err := root.Chmod("/a", fsapi.Mode(0o755)); err != nil {
		t.Fatal(err)
	}
	if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit still dirty after repair: %s", r.Summary())
	}
}
