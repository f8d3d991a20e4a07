package dircache_test

import (
	"fmt"
	"runtime"
	"testing"

	"dircache"
	"dircache/internal/shard"
	"dircache/internal/telemetry"
)

// TestWarmWalkZeroAlloc is the alloc-regression gate behind
// `make memscale-smoke`: with dentries, fast-dentries, and hash-chain
// nodes carved out of slab arenas, and the path cursor held in TryFast's
// frame, a warm fastpath walk must not touch the GC heap at all — 0
// allocs per Stat, whatever route the path takes through the scan:
// absolute, cwd-relative, ".", "..", a trailing slash, a negative hit, or
// through a symlink's alias dentries. A regression here is how GC
// pressure at 10M entries sneaks back in, so it fails fast at unit-test
// scale. The shapes marked memo take their directory prefix from the
// prefix memo on every warm stat — one under an alias directory, one
// deeper than the cursor's inline stack, which must not spill — and the
// others never do.
func TestWarmWalkZeroAlloc(t *testing.T) {
	const path = "/a/b/c/d/e/f/g/file"
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	sys := dircache.New(cfg)
	setup := sys.Start(dircache.RootCreds())
	if err := setup.MkdirAll("/a/b/c/d/e/f/g", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := setup.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := setup.Symlink("/a/b/c/d", "/lnk"); err != nil {
		t.Fatal(err)
	}
	if err := setup.Symlink("/a/b/c/d", "/a/b/link"); err != nil {
		t.Fatal(err)
	}
	deep := ""
	for i := 0; i < 30; i++ { // past the cursor's 24 inline frames
		deep += fmt.Sprintf("/p%02d", i)
	}
	if err := setup.MkdirAll(deep, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := setup.WriteFile(deep+"/file", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	p := sys.Start(dircache.RootCreds())
	if err := p.Chdir("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path   string
		enoent, memo bool
	}{
		{"absolute", path, false, true},
		{"relative", "d/e/f/g/file", false, true},
		{"directory", "/a/b/c/d", false, true}, // published: the mid-path "." below resolves it
		{"dot", "./d/./e/f/g/file", false, false},
		{"dot-dot", "/a/b/c/d/../d/e/../e/f/g/file", false, false},
		{"dot-dot-below-cwd", "../../b/c/d/e/f/g/file", false, false},
		{"trailing-slash", "/a/b/c/d/e/f/g/", false, false},
		{"start-directory", ".", false, false},
		{"negative", "/a/b/c/d/e/f/g/ghost", true, true},
		{"symlink-alias", "/lnk/e/f/g/file", false, true},
		{"alias-prefix", "/a/b/link/e/f/g/file", false, true},
		{"deep-prefix", deep + "/file", false, true},
	} {
		stat := func() {
			if _, err := p.Stat(tc.path); (err != nil) != tc.enoent {
				t.Fatalf("%s: Stat(%q) = %v", tc.name, tc.path, err)
			}
		}
		for i := 0; i < 8; i++ {
			stat()
		}
		before := sys.Stats()
		avg := testing.AllocsPerRun(500, stat)
		d := sys.Stats().Delta(before)
		if d.SlowWalks != 0 {
			t.Fatalf("%s: %d of %d warm walks left the fastpath", tc.name, d.SlowWalks, d.Lookups)
		}
		if want := map[bool]int64{true: d.Lookups}[tc.memo]; d.PrefixMemoHits != want {
			t.Fatalf("%s: %d of %d warm walks took their prefix from the memo, want %d", tc.name, d.PrefixMemoHits, d.Lookups, want)
		}
		if avg != 0 {
			t.Fatalf("%s: warm walk allocates: %.2f allocs/op (want 0 — the slab arenas exist so this path never touches the GC heap)", tc.name, avg)
		}
	}
}

// TestResumedStatAllocs: a stat that misses the DLHT under a directory the
// DLHT and the PCC hold walks only its last component (vfs.Resume) and
// allocates nothing the full slow walk of the same stat does not: the
// hand-off is a value on the walk's stack. Every run stats a file no walk
// has looked up since the caches were dropped — one backend Lookup each —
// under warm, whose stats resume, and under its twin cold, which no walk
// has ended at and whose stats walk the whole path.
func TestResumedStatAllocs(t *testing.T) {
	const runs = 200
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	for _, dir := range []string{"/a/b/c/d/e/f/warm", "/a/b/c/d/e/f/cold"} {
		if err := p.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= runs; i++ {
			if err := p.WriteFile(fmt.Sprintf("%s/f%03d", dir, i), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys.DropCaches()
	// One stat brings cold back into the cache, below admission's second
	// touch; three publish and memoize warm.
	for i, dir := range []string{"/a/b/c/d/e/f/cold", "/a/b/c/d/e/f/warm", "/a/b/c/d/e/f/warm", "/a/b/c/d/e/f/warm"} {
		if _, err := p.Stat(dir); err != nil {
			t.Fatal(i, err)
		}
	}
	measure := func(dir string) (float64, dircache.CacheStats) {
		n := 0
		before := sys.Stats()
		avg := testing.AllocsPerRun(runs, func() {
			if _, err := p.Stat(fmt.Sprintf("%s/f%03d", dir, n)); err != nil {
				t.Fatal(err)
			}
			n++
		})
		return avg, sys.Stats().Delta(before)
	}
	full, df := measure("/a/b/c/d/e/f/cold")
	resumed, dr := measure("/a/b/c/d/e/f/warm")
	if df.ResumedWalks != 0 || df.FSLookups != runs+1 || dr.ResumedWalks != runs+1 || dr.FSLookups != runs+1 {
		t.Fatalf("full walks: %d resumed, %d backend lookups; resumed walks: %d resumed, %d backend lookups; want 0, %d; %d, %d",
			df.ResumedWalks, df.FSLookups, dr.ResumedWalks, dr.FSLookups, runs+1, runs+1, runs+1)
	}
	t.Logf("allocations per cold stat: %.2f resumed, %.2f walking the whole path", resumed, full)
	if resumed > full {
		t.Fatalf("a resumed cold stat allocates %.2f, the full slow walk of one %.2f", resumed, full)
	}
}

// TestWalkTimingSample: with telemetry on, a walk is timed when the count
// its own Add returned is one past a multiple of eight, so 2000 stats from
// one frame record exactly 250 walk observations — in every build, the
// race detector's included, where the count and a second read of it
// would sit at different stack depths and so on different stripes.
func TestWalkTimingSample(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	tl := sys.EnableTelemetry(dircache.TelemetryOptions{})
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	before := tl.SnapshotHist(telemetry.HistWalk).Count
	for i := 0; i < 2000; i++ {
		if _, err := p.Stat("/a/b"); err != nil {
			t.Fatal(err)
		}
	}
	if got := tl.SnapshotHist(telemetry.HistWalk).Count - before; got != 250 {
		t.Fatalf("2000 stats recorded %d walk observations, want 250", got)
	}
}

// TestTracedStatAllocs: a sampled walk allocates its trace and the
// trace's event array, and the ring keeps that trace as it is — a warm
// stat traced at every walk allocates 2, at one component or at twenty.
func TestTracedStatAllocs(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	sys.EnableTelemetry(dircache.TelemetryOptions{TraceSample: 1})
	p := sys.Start(dircache.RootCreds())
	deep := ""
	for i := 0; i < 20; i++ {
		deep += fmt.Sprintf("/p%02d", i)
	}
	if err := p.MkdirAll(deep, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/p00", deep} {
		stat := func() {
			if _, err := p.Stat(path); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			stat()
		}
		if avg := testing.AllocsPerRun(500, stat); avg > 2 {
			t.Errorf("a traced warm stat of %s allocates %.2f, want <= 2", path, avg)
		}
	}
	if sys.Telemetry().TraceCount() == 0 {
		t.Fatal("no walk was traced")
	}
}

// TestChmodThenStatAllocs pins what a permission change costs the heap.
// {Chmod a populated directory, Stat one file under it} never leaves the
// fastpath: the directory's own entry outlives the previous chmod, the
// file's outlives this one, and each PCC miss behind the bumped seqs is
// answered by re-checking the prefix in place. What is left is 1 per pair
// — the *Mode SetAttr takes, which the cache-less kernel pays too: the
// bracket BeginMutation returns is a value. With a closure there, a heap
// snapshot of the signature state per publication and the eager subtree
// walk, this read 7; with the range mark unpublishing for every reason, 2
// and two slow walks.
func TestChmodThenStatAllocs(t *testing.T) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll("/srv/www", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := p.WriteFile(fmt.Sprintf("/srv/www/f%02d", i), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pair := func() {
		if err := p.Chmod("/srv/www", 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Stat("/srv/www/f07"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		pair()
	}
	before := sys.Stats()
	avg := testing.AllocsPerRun(500, pair)
	d := sys.Stats().Delta(before)
	// Each pair bumps the directory and, at the stat, discharges the mark
	// above the file, so both walks of the pair miss the PCC and re-check:
	// without those the pin measures a warm path.
	if d.LazyShootdowns < 500 || d.PrefixRechecks < 2*500 {
		t.Fatalf("%d range-mark discharges and %d prefix re-checks in 500 pairs: the chmod revoked nothing, the pin measures a warm path", d.LazyShootdowns, d.PrefixRechecks)
	}
	if d.SlowWalks != 0 || d.PCCMisses != 0 || d.DLHTMisses != 0 {
		t.Fatalf("%d slow walks (%d DLHT misses, %d PCC misses that fell through) in 500 pairs, want 0: a permission change keeps the table entries and the prefix re-check answers",
			d.SlowWalks, d.DLHTMisses, d.PCCMisses)
	}
	if avg > 1 {
		t.Fatalf("chmod + stat behind its range mark allocates %.2f per pair, want <= 1", avg)
	}
}

// TestRenameRoundTripThenStat pins what a rename that puts a directory
// back costs a read below it. {Rename /srv/www away and back, Stat one file
// under it} never leaves the fastpath: the file's entry is under the
// rename's range mark, and the first probe re-derives its key from where
// it is now — the same path, so the entry stays, the seq bump makes the
// PCC miss, and the prefix is re-checked in place. Discarding the entry
// instead cost a slow walk, a DLHT miss and a population per pair. The
// stat allocates nothing of its own: the pair allocates what the round
// trip alone does.
func TestRenameRoundTripThenStat(t *testing.T) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll("/srv/www", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := p.WriteFile(fmt.Sprintf("/srv/www/f%02d", i), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip := func() {
		if err := p.Rename("/srv/www", "/srv/www.mv"); err != nil {
			t.Fatal(err)
		}
		if err := p.Rename("/srv/www.mv", "/srv/www"); err != nil {
			t.Fatal(err)
		}
	}
	pair := func() {
		roundTrip()
		if _, err := p.Stat("/srv/www/f07"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		pair()
	}
	alone := testing.AllocsPerRun(500, roundTrip)
	before := sys.Stats()
	avg := testing.AllocsPerRun(500, pair)
	d := sys.Stats().Delta(before)
	if d.KeptUnmoved < 500 || d.PrefixRechecks < 500 {
		t.Fatalf("%d entries kept and %d prefix re-checks in 500 pairs: the round trip revoked nothing, the pin measures a warm path", d.KeptUnmoved, d.PrefixRechecks)
	}
	if d.SlowWalks != 0 || d.DLHTMisses != 0 || d.Populations != 0 {
		t.Fatalf("%d slow walks, %d DLHT misses and %d populations in 500 pairs, want 0: a rename that restores the path keeps the entries below it",
			d.SlowWalks, d.DLHTMisses, d.Populations)
	}
	if avg > alone {
		t.Fatalf("round trip + stat allocates %.2f per pair, the round trip alone %.2f: the stat behind the mark allocates", avg, alone)
	}
}

// TestEvictingReadsReclaimSlab: a read-only workload larger than the cache
// evicts on every miss but has no mutation tail to pace reclamation, so
// the walk itself must return retired slots once it leaves its epoch
// section. Slots awaiting their grace period stay bounded by a few reap
// batches however long the scan runs, instead of growing with it.
func TestEvictingReadsReclaimSlab(t *testing.T) {
	const dirs, files, capacity = 16, 64, 256
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	cfg.CacheCapacity = capacity
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	for d := 0; d < dirs; d++ {
		if err := p.Mkdir(fmt.Sprintf("/d%02d", d), 0o755); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < files; f++ {
			if err := p.Create(fmt.Sprintf("/d%02d/f%02d", d, f), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan := func(passes int) int64 {
		before := sys.Stats()
		for pass := 0; pass < passes; pass++ {
			for d := 0; d < dirs; d++ {
				for f := 0; f < files; f++ {
					if _, err := p.Stat(fmt.Sprintf("/d%02d/f%02d", d, f)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if ev := sys.Stats().Delta(before).Evictions; ev < int64(passes*dirs*files/2) {
			t.Fatalf("scan evicted %d dentries; the working set should not fit", ev)
		}
		m := sys.MemStats()
		return m.Dentries.Limbo + m.LimboQueue
	}
	const bound = 4 * 256 // four of the kernel's 256-slot reap batches
	short, long := scan(2), scan(20)
	if short > bound || long > bound {
		t.Fatalf("slots in limbo after 2 / 22 passes = %d / %d, want <= %d both times", short, long, bound)
	}
}

// TestEvictingCreatesReclaimSlab is the create-only sibling: Mkdir and
// Open(O_CREAT) hold their own epoch section, so neither the nested
// parent walk's reclaim nor Shrink's can clear the grace period of the
// slots their installs evict, and a build step that only creates has no
// later mutation tail either. The create must reclaim after it leaves its
// section, or every evicted dentry sits in limbo and the arena hands out a
// fresh slot per create: the slots it has ever handed out (each is live,
// free or in limbo) must stay near the cache's capacity — the eviction
// batch and a reap's worth of limbo above it — not near the create count.
func TestEvictingCreatesReclaimSlab(t *testing.T) {
	const dirs, files, capacity = 480, 20, 4096
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	cfg.CacheCapacity = capacity
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if err := p.Mkdir("/t", 0o755); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dirs; d++ {
		if err := p.Mkdir(fmt.Sprintf("/t/d%03d", d), 0o755); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < files; f++ {
			if err := p.Create(fmt.Sprintf("/t/d%03d/f%02d", d, f), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := sys.MemStats().Dentries
	used := m.Live + m.Free + m.Limbo
	if m.Limbo > 512 || m.Reclaimed == 0 || used > capacity+capacity/4 {
		t.Fatalf("after %d creates at capacity %d: dentry arena limbo=%d reclaimed=%d slots used=%d (retired %d), want limbo <= 512, reclaimed > 0, used <= %d",
			dirs*files, capacity, m.Limbo, m.Reclaimed, used, m.Retired, capacity+capacity/4)
	}
}

// TestFreshSystemFootprint: what a System holds follows what it caches. The
// hash table starts at a thousand buckets and an arena's first chunk at a
// thousand slots, so an optimized System with a thousand files accounts for
// 0.36 MB of table, memo and arena bytes, the namespace's DLHT buckets
// (12 KB) and the prefix memo's fixed 32 KB of slots among them. The bound
// is there so that fixed cost cannot come back unnoticed. Telemetry and the
// coherence log pay for what they hold too: with telemetry on, the same
// System's telemetry holds 48 KB (histogram cells only for the stripes that
// recorded, the journal grown to its 2000 events), and a four-shard group
// with a thousand files, which has not audited and so has built no oracle,
// 2.4 MB of heap, 0.12 MB of it telemetry and coherence logs. Each arm's
// bound is about twice its figure, which the test logs.
func TestFreshSystemFootprint(t *testing.T) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	t.Run("optimized", func(t *testing.T) {
		m := footprintOf(t, cfg, false)
		if m.Table.Entries < 1000 || m.Dentries.Live < 1000 {
			t.Fatalf("the files are not all cached: %+v", m)
		}
		if m.FastDentries != (dircache.ArenaStats{}) {
			t.Fatalf("the retired fast-dentry arena reads %+v: fast state lives in the dentry's slot", m.FastDentries)
		}
		if m.DLHT.Buckets == 0 || m.DLHT.Bytes > 16<<10 {
			t.Fatalf("the DLHT's bucket array holds %d bytes for %d entries, want <= 16 KB: %+v", m.DLHT.Bytes, m.DLHT.Entries, m.DLHT)
		}
		if pm := m.PrefixMemo; pm.Slots == 0 || pm.Entries == 0 || pm.Bytes < int64(pm.Slots)*8 {
			t.Fatalf("the prefix memo is not accounted for: %+v", pm)
		}
		if m.Telemetry != (dircache.TelemetryFootprint{}) || m.Coherence != (dircache.CoherenceFootprint{}) {
			t.Fatalf("a System without telemetry or peers accounts for %+v and %+v", m.Telemetry, m.Coherence)
		}
		const bound = 3 << 19 // 1.5 MB
		t.Logf("tables, memo and arenas: %d KB", m.Bytes()>>10)
		if got := m.Bytes(); got > bound {
			t.Fatalf("tables, memo and arenas hold %d bytes for 1000 files, want <= %d: %+v", got, bound, m)
		}
	})
	t.Run("telemetry", func(t *testing.T) {
		tf := footprintOf(t, cfg, true).Telemetry
		t.Logf("telemetry: %d KB, %+v", tf.Bytes>>10, tf)
		if tf.JournalSlots == 0 || tf.HistCells == 0 || tf.Bytes > 96<<10 {
			t.Fatalf("telemetry of a System with 1000 files: %+v, want journal slots and histogram cells, all in <= 96 KB", tf)
		}
	})
	t.Run("group", func(t *testing.T) {
		before := heapAlloc()
		g := shard.NewLocalGroup(4, cfg, shard.Options{})
		defer g.Close()
		if err := g.Router.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			p := fmt.Sprintf("/d/f%03d", i)
			if err := g.Router.WriteFile(p, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Router.Stat(p); err != nil {
				t.Fatal(err)
			}
		}
		if !g.Router.Converge(0) {
			t.Fatal("the group did not converge")
		}
		heap := heapAlloc() - before
		var logs int64
		for _, sys := range g.Systems {
			m := sys.MemStats()
			logs += m.Telemetry.Bytes + m.Coherence.Bytes
		}
		t.Logf("group: %d KB of heap, %d KB of it telemetry and coherence logs", heap>>10, logs>>10)
		if heap > 5<<20 || logs > 256<<10 {
			t.Fatalf("a four-shard group with 1000 files holds %d bytes of heap (want <= 5 MB), %d of telemetry and coherence logs (want <= 256 KB)", heap, logs)
		}
		runtime.KeepAlive(g)
	})
}

// footprintOf builds a System of cfg, with telemetry attached when
// telemetryOn, creates and stats a thousand files in one directory, and
// returns its MemStats.
func footprintOf(t *testing.T, cfg dircache.Config, telemetryOn bool) dircache.MemStats {
	sys := dircache.New(cfg)
	if telemetryOn {
		sys.EnableTelemetry(dircache.TelemetryOptions{})
	}
	p := sys.Start(dircache.RootCreds())
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := p.Create(fmt.Sprintf("/d/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Stat(fmt.Sprintf("/d/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return sys.MemStats()
}

// heapAlloc is the live heap after two collections.
func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestChmodLoopKeepsDLHTEntries: a permission change removes no DLHT
// entry — the directory's entry and its descendants' stay in the table, so
// a loop of nothing but Chmod, Chown and SetLabel leaves the table's entry
// count where it was and publishes nothing anew.
// The second arm is why a range mark's class is a generation and not a
// sticky bit: a directory renamed once must not turn every later chmod
// structural, or each round would drop its re-read children's entries and
// walk slowly to publish them again.
func TestChmodLoopKeepsDLHTEntries(t *testing.T) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll("/srv/www", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // admission publishes on the second touch
		if _, err := p.Stat("/srv/www"); err != nil {
			t.Fatal(err)
		}
	}
	ops := []func() error{
		func() error { return p.Chmod("/srv/www", 0o755) },
		func() error { return p.Chown("/srv/www", 0, 0) },
		func() error { return p.SetLabel("/srv/www", "web_t") },
	}
	entries, pops := sys.MemStats().DLHT.Entries, sys.Stats().Populations
	if entries == 0 {
		t.Fatal("nothing published: the loop exercises nothing")
	}
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		if err := ops[i%len(ops)](); err != nil {
			t.Fatal(err)
		}
	}
	if e, n := sys.MemStats().DLHT.Entries, sys.Stats().Populations; e != entries || n != pops {
		t.Fatalf("after %d permission changes: DLHT entries %d -> %d, populations +%d; want both unchanged", rounds, entries, e, n-pops)
	}

	if err := p.WriteFile("/srv/www/index", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	round := func(dir string) {
		if err := p.Chmod(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Stat(dir + "/index"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		round("/srv/www")
	}
	if err := p.Rename("/srv/www", "/srv/web"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // discharge the rename's mark, republish under the new path
		round("/srv/web")
	}
	entries, pops, slow := sys.MemStats().DLHT.Entries, sys.Stats().Populations, sys.Stats().SlowWalks
	for i := 0; i < rounds/10; i++ {
		round("/srv/web")
	}
	if e, st := sys.MemStats().DLHT.Entries, sys.Stats(); e != entries || st.Populations != pops || st.SlowWalks != slow {
		t.Fatalf("%d {chmod, stat below it} rounds on a once-renamed directory: DLHT entries %d -> %d, %d populations over %d slow walks, want none",
			rounds/10, entries, e, st.Populations-pops, st.SlowWalks-slow)
	}
}
