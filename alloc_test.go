package dircache_test

import (
	"fmt"
	"testing"

	"dircache"
)

// TestWarmWalkZeroAlloc is the alloc-regression gate behind
// `make memscale-smoke`: with dentries, fast-dentries, and hash-chain
// nodes carved out of slab arenas, and the path cursor held in TryFast's
// frame, a warm fastpath walk must not touch the GC heap at all — 0
// allocs per Stat, whatever route the path takes through the scan:
// absolute, cwd-relative, ".", "..", a trailing slash, a negative hit, or
// through a symlink's alias dentries. A regression here is how GC
// pressure at 10M entries sneaks back in, so it fails fast at unit-test
// scale.
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
	p := sys.Start(dircache.RootCreds())
	if err := p.Chdir("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		enoent     bool
	}{
		{"absolute", path, false},
		{"relative", "d/e/f/g/file", false},
		{"directory", "/a/b/c/d", false}, // published: the mid-path "." below resolves it
		{"dot", "./d/./e/f/g/file", false},
		{"dot-dot", "/a/b/c/d/../d/e/../e/f/g/file", false},
		{"dot-dot-below-cwd", "../../b/c/d/e/f/g/file", false},
		{"trailing-slash", "/a/b/c/d/e/f/g/", false},
		{"start-directory", ".", false},
		{"negative", "/a/b/c/d/e/f/g/ghost", true},
		{"symlink-alias", "/lnk/e/f/g/file", false},
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
		if d := sys.Stats().Delta(before); d.SlowWalks != 0 {
			t.Fatalf("%s: %d of %d warm walks left the fastpath", tc.name, d.SlowWalks, d.Lookups)
		}
		if avg != 0 {
			t.Fatalf("%s: warm walk allocates: %.2f allocs/op (want 0 — the slab arenas exist so this path never touches the GC heap)", tc.name, avg)
		}
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
		return m.Dentries.Limbo + m.ChainNodes.Limbo + m.FastDentries.Limbo + m.DLHTNodes.Limbo + m.LimboQueue
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
// 0.43 MB of table and arena bytes, the namespace's DLHT buckets (12 KB)
// among them; with the table and chunks sized for millions of names it was
// 6.3 MB, 5.6 of them before the first create. The bound is there so that
// fixed cost cannot come back unnoticed.
func TestFreshSystemFootprint(t *testing.T) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if err := p.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := p.Create(fmt.Sprintf("/d/f%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := sys.MemStats()
	if m.Table.Entries < 1000 || m.Dentries.Live < 1000 {
		t.Fatalf("the files are not all cached: %+v", m)
	}
	if m.FastDentries != (dircache.ArenaStats{}) {
		t.Fatalf("the retired fast-dentry arena reads %+v: fast state lives in the dentry's slot", m.FastDentries)
	}
	if m.DLHT.Buckets == 0 || m.DLHT.Bytes > 16<<10 {
		t.Fatalf("the DLHT's bucket array holds %d bytes for %d entries, want <= 16 KB (it was 2^16 heads, 258 KB, at any size): %+v", m.DLHT.Bytes, m.DLHT.Entries, m.DLHT)
	}
	const bound = 3 << 19 // 1.5 MB
	if got := m.Bytes(); got > bound {
		t.Fatalf("table + arenas hold %d bytes for 1000 files, want <= %d: %+v", got, bound, m)
	}
}

// TestChmodLoopReclaimsDLHTNodes: a permission change retires no DLHT
// node — the directory's entry and its descendants' stay in the table, so
// Chmod, Chown and SetLabel end without the reap unlink, rmdir and rename
// end with and a loop of nothing else leaves the node arena's limbo empty
// (when the shootdown unpublished for every reason, 50 000 chmods left
// 50 000 nodes in limbo across 7 chunks until a reap was added to them).
// The second arm is why a range mark's class is a generation and not a
// sticky bit: a directory renamed once must not turn every later chmod
// structural, or each round would retire its re-read children's nodes
// with nothing behind it to reclaim them.
func TestChmodLoopReclaimsDLHTNodes(t *testing.T) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 1
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll("/srv/www", 0o755); err != nil {
		t.Fatal(err)
	}
	ops := []func() error{
		func() error { return p.Chmod("/srv/www", 0o755) },
		func() error { return p.Chown("/srv/www", 0, 0) },
		func() error { return p.SetLabel("/srv/www", "web_t") },
	}
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		if err := ops[i%len(ops)](); err != nil {
			t.Fatal(err)
		}
	}
	if m := sys.MemStats().DLHTNodes; m.Retired != 0 || m.Limbo != 0 {
		t.Fatalf("after %d permission changes: DLHT nodes retired=%d limbo=%d, want 0 and 0", rounds, m.Retired, m.Limbo)
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
	before, slow := sys.MemStats().DLHTNodes.Retired, sys.Stats().SlowWalks
	for i := 0; i < rounds/10; i++ {
		round("/srv/web")
	}
	if m := sys.MemStats().DLHTNodes; m.Retired != before || sys.Stats().SlowWalks != slow {
		t.Fatalf("%d {chmod, stat below it} rounds on a once-renamed directory retired %d DLHT nodes over %d slow walks, want 0 and 0",
			rounds/10, m.Retired-before, sys.Stats().SlowWalks-slow)
	}
}
