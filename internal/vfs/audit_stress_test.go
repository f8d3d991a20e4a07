package vfs_test

// The auditor's whole point is running beside live traffic, so its VFS-
// level checks are exercised here under the same walk-vs-mutate storm as
// TestStressWalkVsMutate. This file is an external test package: the
// auditor imports vfs, so an in-package test would be an import cycle.

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

// TestAuditInvariantDuringWalkStress runs the invariant auditor
// continuously while walkers race rename/chmod/create/unlink/Shrink
// traffic. Valid passes must report zero violations throughout, and a
// quiescent pass after the storm must be achievable and clean.
func TestAuditInvariantDuringWalkStress(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{
		CacheCapacity:       96,
		DirCompleteness:     true,
		AggressiveNegatives: true,
	}, memfs.New(memfs.Options{}))
	// Telemetry from kernel start: the journal cross-checks assume no
	// emission gap.
	tel := telemetry.New(telemetry.Options{})
	k.SetTelemetry(tel)

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
	// Prime a DIR_COMPLETE directory so the completeness checks have a
	// subject.
	primeTmp := func() {
		d, err := root.Open("/tmp", vfs.O_RDONLY|vfs.O_DIRECTORY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadDirAll(); err != nil {
			t.Fatal(err)
		}
		d.Close()
	}
	primeTmp()

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
				task.Stat(fmt.Sprintf("/tmp/s%03d", (seed*31+i)%32))
				if _, err := task.Stat("/etc/enoent"); err == nil {
					panic("missing path resolved")
				}
				task.Stat("/mv/dir") // flaps mid-rename
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
			p := fmt.Sprintf("/tmp/churn%02d", i%8)
			task.Create(p, 0o644)
			task.Unlink(p)
			if i%4 == 0 {
				k.Shrink(4)
			}
		}
	}()

	// Drive passes directly (run first, then check stop) so at least one
	// pass lands inside the storm even when the single-CPU scheduler
	// delays this goroutine until the storm's tail.
	aud := audit.New(k, nil)
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

	// At quiescence a valid pass is guaranteed and must be clean. Which
	// of /tmp's children the storm's Shrink calls took — each clears the
	// directory's DIR_COMPLETE — is the shrinker's business, so list it
	// again to be sure the completeness check has its subject.
	primeTmp()
	r := aud.RunUntilValid(10)
	if !r.Valid {
		t.Fatalf("no valid audit pass at quiescence: %s", r.Summary())
	}
	if r.Violations() != 0 {
		t.Fatalf("violations at quiescence: %s", r.Summary())
	}
	if r.Checked["dir_complete"] == 0 {
		t.Fatalf("audit never exercised the dir_complete check: %v", r.Checked)
	}
}

// TestAuditCatchesLRUMiscount: membership is a flag in the dentry's slab
// slot and Len() a separate word, so nothing but a census can tell that an
// add, remove or claim was counted twice or not at all.
func TestAuditCatchesLRUMiscount(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{}, memfs.New(memfs.Options{}))
	root := k.NewTask(cred.Root())
	for i := 0; i < 8; i++ {
		if err := root.Create(fmt.Sprintf("/f%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	k.Shrink(3)
	aud := audit.New(k, nil)
	if r := aud.Run(); !r.Valid || r.Violations() != 0 || r.Checked["lru_census"] == 0 {
		t.Fatalf("audit before the skew: %s", r.Summary())
	}
	for _, delta := range []int64{1, -1} {
		k.SkewLRUCount(delta)
		r := aud.Run()
		if !r.Valid || len(r.Findings) != 1 || r.Findings[0].Check != "lru_census" {
			t.Fatalf("count skewed by %+d: %s", delta, r.Summary())
		}
		k.SkewLRUCount(-delta)
	}
	if r := aud.Run(); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit after the skew was undone: %s", r.Summary())
	}
}
