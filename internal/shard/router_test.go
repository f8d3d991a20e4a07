package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dircache"
	"dircache/internal/coherence"
	"dircache/internal/fsapi"
)

// buildTree populates /srv/app{0..apps-1}/lib/pkg{0..pkgs-1}/file.go
// (directories through shard 0, files through the router) and converges
// the creation events before returning every file path.
func buildTree(t testing.TB, g *Group, apps, pkgs int) []string {
	t.Helper()
	var files []string
	for a := 0; a < apps; a++ {
		for p := 0; p < pkgs; p++ {
			dir := fmt.Sprintf("/srv/app%d/lib/pkg%d", a, p)
			if err := g.Locals[0].MkdirAll(dir, 0o755); err != nil {
				t.Fatalf("MkdirAll %s: %v", dir, err)
			}
			files = append(files, dir+"/file.go")
		}
	}
	// Propagate the directory creations before routing writes through
	// other shards (their caches may hold authoritative listings of the
	// parents from earlier walks).
	if !g.Router.Converge(0) {
		t.Fatal("mkdir phase did not converge")
	}
	for _, f := range files {
		if err := g.Router.WriteFile(f, []byte("package x\n"), 0o644); err != nil {
			t.Fatalf("WriteFile %s: %v", f, err)
		}
	}
	if !g.Router.Converge(0) {
		t.Fatal("tree build did not converge")
	}
	return files
}

func warm(t testing.TB, g *Group, files []string) {
	t.Helper()
	for _, f := range files {
		if _, err := g.Router.Lstat(f); err != nil {
			t.Fatalf("warm Lstat %s: %v", f, err)
		}
	}
}

func isENOENT(_ dircache.FileInfo, err error) bool { return fsapi.ToErrno(err) == fsapi.ENOENT }

func newTestGroup(t testing.TB, n int) *Group {
	t.Helper()
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 0x5eed
	g := NewLocalGroup(n, cfg, Options{})
	t.Cleanup(func() { g.Close() })
	return g
}

// TestRouterRoutesAndServes: routed metadata ops answer correctly across
// 4 shards sharing one backend.
func TestRouterRoutesAndServes(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 8)
	warm(t, g, files)
	// Spot checks: stat, readdir colocation, readfile.
	fi, err := g.Router.Stat(files[0])
	if err != nil || fi.IsDir() {
		t.Fatalf("Stat %s: %v %v", files[0], fi, err)
	}
	ents, err := g.Router.ReadDir("/srv/app0/lib/pkg0")
	if err != nil || len(ents) != 1 || ents[0].Name != "file.go" {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	data, err := g.Router.ReadFile(files[1])
	if err != nil || string(data) != "package x\n" {
		t.Fatalf("ReadFile: %q %v", data, err)
	}
	// All four shards participate.
	owners := map[int]bool{}
	for _, f := range files {
		owners[g.Router.Owner(f)] = true
	}
	if len(owners) != 4 {
		t.Fatalf("only %d of 4 shards own keys", len(owners))
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("clean tier audit found: %v", f)
	}
}

// TestRouterRenameCoherence: a cross-shard rename storm converges with
// zero stale reads — peers that cached the moved prefix (as walk
// ancestors) drop it when the coherence records arrive, and the old path
// answers ENOENT everywhere afterwards.
func TestRouterRenameCoherence(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 8)
	warm(t, g, files)

	// Rename each app root to a new name: the subtree's cached state on
	// every non-executing shard is now stale until the pump runs.
	for a := 0; a < 4; a++ {
		old := fmt.Sprintf("/srv/app%d", a)
		niu := fmt.Sprintf("/srv/app%d-moved", a)
		if err := g.Router.Rename(old, niu); err != nil {
			t.Fatalf("Rename %s: %v", old, err)
		}
	}
	if !g.Router.Converge(0) {
		t.Fatal("rename storm did not converge")
	}
	pub, applied, fallbacks := g.Router.Stats()
	if pub == 0 || applied == 0 {
		t.Fatalf("no coherence traffic: published=%d applied=%d", pub, applied)
	}
	if fallbacks != 0 {
		t.Fatalf("unexpected fell-behind fallbacks: %d", fallbacks)
	}
	// Old paths gone, new paths present, through every route.
	for a := 0; a < 4; a++ {
		old := fmt.Sprintf("/srv/app%d/lib/pkg0/file.go", a)
		niu := fmt.Sprintf("/srv/app%d-moved/lib/pkg0/file.go", a)
		if _, err := g.Router.Lstat(old); err == nil {
			t.Fatalf("stale read: %s still resolves after rename+converge", old)
		}
		if _, err := g.Router.Lstat(niu); err != nil {
			t.Fatalf("moved path %s unreachable: %v", niu, err)
		}
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("post-converge audit found: %v", f)
	}
}

// TestRouterInjectedBugCaught: with the drop-the-invalidation bug
// injected, the cross-shard audit MUST report stale claims — proving the
// check has teeth.
func TestRouterInjectedBugCaught(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 8)
	warm(t, g, files)
	for a := 0; a < 4; a++ {
		old := fmt.Sprintf("/srv/app%d", a)
		if err := g.Router.Rename(old, old+"-moved"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
	}
	g.Router.dropPending()
	g.Router.Converge(0)
	findings := g.Audit()
	stale := 0
	for _, f := range findings {
		if f.Check == "cross_shard_stale" {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("injected drop-the-invalidation bug not caught; findings: %v", findings)
	}
	// Repair: the lost records cannot be read again, so every shard takes
	// the full fallback, and the audit must come back clean.
	for _, l := range g.Locals {
		l.InvalidateAll()
	}
	g.Router.Converge(0)
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit still dirty after repair: %v", f)
	}
}

// TestRouterFellBehindFallback: a subscriber lagging past the coherence
// log's retention takes the fail-closed full invalidation instead of
// serving stale entries.
func TestRouterFellBehindFallback(t *testing.T) {
	g := newTestGroup(t, 2)
	files := buildTree(t, g, 2, 4)
	warm(t, g, files)
	g.Router.Converge(0)

	// Overrun shard 0's log between pumps: more creations than it retains
	// (each publishes one record, and so does removing the empty
	// directory), so the record after the router's cursor is gone.
	l := g.Locals[0]
	const churn = "/srv/app0/lib/pkg0/churn"
	for i := 0; i <= coherence.Capacity; i++ {
		if err := l.Mkdir(churn, 0o755); err != nil {
			t.Fatalf("Mkdir %d: %v", i, err)
		}
		if err := l.Rmdir(churn); err != nil {
			t.Fatalf("Rmdir %d: %v", i, err)
		}
	}
	g.Router.Pump()
	_, _, fallbacks := g.Router.Stats()
	if fallbacks == 0 {
		t.Fatal("log overrun did not trigger the fail-closed fallback")
	}
	if !g.Router.Converge(0) {
		t.Fatal("did not converge after fallback")
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit after fallback: %v", f)
	}
}

// TestRouterRenameVsWalkRace: renames on one shard race walks routed to
// every shard while the pump runs concurrently; after quiescing, the tier
// converges and the cross-shard audit is clean. Run under -race by
// make shard-smoke.
func TestRouterRenameVsWalkRace(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 6)
	warm(t, g, files)

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Renamer: bounces /srv/app1 back and forth.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if i%2 == 0 {
				_ = g.Router.Rename("/srv/app1", "/srv/app1-x")
			} else {
				_ = g.Router.Rename("/srv/app1-x", "/srv/app1")
			}
		}
	}()
	// Walkers: stat paths under both names via the router; either answer
	// (hit or ENOENT) is legal mid-storm.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := fmt.Sprintf("/srv/app1/lib/pkg%d/file.go", i%6)
				if i%2 == 1 {
					p = fmt.Sprintf("/srv/app1-x/lib/pkg%d/file.go", i%6)
				}
				_, _ = g.Router.Lstat(p)
			}
		}(w)
	}
	// Pump concurrently with the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			g.Router.Pump()
		}
	}()
	for i := 0; i < 400; i++ {
		_, _ = g.Router.Lstat(files[i%len(files)])
	}
	stop.Store(true)
	wg.Wait()

	if !g.Router.Converge(0) {
		t.Fatal("storm did not converge after quiesce")
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit after racing storm: %v", f)
	}
	// The bounced subtree is reachable under exactly one of its names.
	_, errA := g.Router.Lstat("/srv/app1/lib/pkg0/file.go")
	_, errB := g.Router.Lstat("/srv/app1-x/lib/pkg0/file.go")
	if (errA == nil) == (errB == nil) {
		t.Fatalf("subtree reachable under %v names (errA=%v errB=%v)",
			map[bool]string{true: "both", false: "neither"}[errA == nil], errA, errB)
	}
}

// TestReadOnlyTrafficNeverFallsBehind: the coherence log's retention is
// counted in mutations, so no amount of read traffic between two pumps —
// hits, misses, whatever they insert, admit and evict locally — can push
// a peer past it and cost the tier a full-cache drop.
func TestReadOnlyTrafficNeverFallsBehind(t *testing.T) {
	g := newTestGroup(t, 2)
	files := buildTree(t, g, 8, 16)
	g.Router.Converge(0)
	_, _, before := g.Router.Stats()
	for round := 0; round < 40; round++ {
		for _, f := range files {
			if _, err := g.Router.Lstat(f); err != nil {
				t.Fatalf("Lstat %s: %v", f, err)
			}
			// A name never asked for before: each miss caches a fresh
			// negative dentry, which the telemetry journal records.
			if miss := fmt.Sprintf("%s.absent%d", f, round); !isENOENT(g.Router.Lstat(miss)) {
				t.Fatalf("Lstat %s did not answer ENOENT", miss)
			}
		}
	}
	if n := g.Router.Pump(); n != 0 {
		t.Fatalf("pump after read-only traffic processed %d records", n)
	}
	if _, _, after := g.Router.Stats(); after != before {
		t.Fatalf("read-only traffic forced %d full-cache drop(s)", after-before)
	}
}

// TestCoherenceSurvivesTelemetryOff: observability is not the coherence
// channel. With telemetry switched off on the shard that executes the
// renames (the app roots share a parent, so one shard owns them all), its
// peers still drop the moved subtrees.
func TestCoherenceSurvivesTelemetryOff(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 8)
	warm(t, g, files)
	g.Systems[g.Router.Owner("/srv/app0")].DisableTelemetry()
	_, appliedBefore, _ := g.Router.Stats()
	for a := 0; a < 4; a++ {
		old := fmt.Sprintf("/srv/app%d", a)
		if err := g.Router.Rename(old, old+"-moved"); err != nil {
			t.Fatalf("Rename %s: %v", old, err)
		}
	}
	if !g.Router.Converge(0) {
		t.Fatal("rename storm did not converge")
	}
	if _, applied, fallbacks := g.Router.Stats(); applied == appliedBefore || fallbacks != 0 {
		t.Fatalf("applied %d invalidations, fallbacks=%d: peers were not invalidated record by record", applied-appliedBefore, fallbacks)
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit with telemetry off: %v", f)
	}
	for _, f := range files {
		for i, l := range g.Locals {
			if c := l.Claim(f); c == dircache.ClaimPositive {
				t.Fatalf("shard %d still claims %s exists after its app root moved", i, f)
			}
		}
	}
}

// TestQuiescentPumpDoesNotAllocate is the tier-1 guard that the pump
// stays O(pending): a count, not a clock. On a quiescent tier — whatever
// its logs and telemetry journals hold from the traffic before — Pump
// allocates nothing and Lag only the slice it returns.
func TestQuiescentPumpDoesNotAllocate(t *testing.T) {
	g := newTestGroup(t, 4)
	files := buildTree(t, g, 4, 8)
	warm(t, g, files)
	for a := 0; a < 4; a++ {
		old := fmt.Sprintf("/srv/app%d", a)
		if err := g.Router.Rename(old, old+"-moved"); err != nil {
			t.Fatalf("Rename %s: %v", old, err)
		}
	}
	if !g.Router.Converge(0) {
		t.Fatal("did not converge")
	}
	if n := testing.AllocsPerRun(100, func() {
		if g.Router.Pump() != 0 {
			t.Fatal("quiescent tier had work to pump")
		}
	}); n != 0 {
		t.Fatalf("quiescent Pump allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i, lag := range g.Router.Lag() {
			if lag != 0 {
				t.Fatalf("shard %d lags by %d on a quiescent tier", i, lag)
			}
		}
	}); n > 1 {
		t.Fatalf("quiescent Lag allocates %v times per call, want only its result", n)
	}
}
