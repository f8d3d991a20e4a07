package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dircache"
)

// buildMicroTree creates the LMBench-style fixture paths of Figure 6:
//
//	/FFF
//	/XXX/FFF
//	/XXX/YYY/ZZZ/FFF
//	/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF
//	/XXX/YYY/ZZZ/LLL -> FFF            (link-f)
//	/LLL -> /XXX                       (link-d target for LLL/YYY/ZZZ/FFF)
//	/usr/include/x86_64-linux-gnu/sys/types.h (the "default" path)
func buildMicroTree(p *dircache.Process) error {
	dirs := []string{
		"/XXX", "/XXX/YYY", "/XXX/YYY/ZZZ", "/XXX/YYY/ZZZ/AAA",
		"/XXX/YYY/ZZZ/AAA/BBB", "/XXX/YYY/ZZZ/AAA/BBB/CCC",
		"/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD",
		"/usr", "/usr/include", "/usr/include/x86_64-linux-gnu",
		"/usr/include/x86_64-linux-gnu/sys",
	}
	for _, d := range dirs {
		if err := p.Mkdir(d, 0o755); err != nil {
			return err
		}
	}
	files := []string{
		"/FFF", "/XXX/FFF", "/XXX/YYY/ZZZ/FFF",
		"/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF",
		"/usr/include/x86_64-linux-gnu/sys/types.h",
	}
	for _, f := range files {
		if err := p.Create(f, 0o644); err != nil {
			return err
		}
	}
	if err := p.Symlink("FFF", "/XXX/YYY/ZZZ/LLL"); err != nil {
		return err
	}
	return p.Symlink("/XXX", "/LLL")
}

// microPaths are Figure 6's path patterns.
var microPaths = []struct {
	name string
	path string
	// negative marks paths expected to ENOENT.
	negative bool
}{
	{"default", "/usr/include/x86_64-linux-gnu/sys/types.h", false},
	{"1-comp", "/FFF", false},
	{"2-comp", "/XXX/FFF", false},
	{"4-comp", "/XXX/YYY/ZZZ/FFF", false},
	{"8-comp", "/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF", false},
	{"link-f", "/XXX/YYY/ZZZ/LLL", false},
	{"link-d", "/LLL/YYY/ZZZ/FFF", false},
	{"neg-f", "/XXX/YYY/ZZZ/NNN", true},
	{"neg-d", "/NNN/XXX/YYY/FFF", true},
	{"1-dotdot", "/XXX/../FFF", false},
	{"4-dotdot", "/XXX/YYY/../../XXX/YYY/../../FFF", false},
}

// statPoint warms path with a few stats (past admission, onto the hit
// path), then measures n more.
func statPoint(sys *dircache.System, p *dircache.Process, path string, n int) (float64, dircache.CacheStats) {
	stat := func() { p.Stat(path) }
	for i := 0; i < 32; i++ {
		stat()
	}
	return measure(sys, n, stat)
}

// openPoint is statPoint for open+close.
func openPoint(sys *dircache.System, p *dircache.Process, path string, n int) float64 {
	open := func() {
		if f, err := p.Open(path, dircache.O_RDONLY, 0); err == nil {
			f.Close()
		}
	}
	for i := 0; i < 32; i++ {
		open()
	}
	ns, _ := measure(sys, n, open)
	return ns
}

// putWalk records the walk work a stat point counted, under prefix.
func (r *Report) putWalk(prefix string, d dircache.CacheStats) {
	r.put(prefix+"/components", float64(d.Components))
	r.put(prefix+"/fast_hits", float64(d.FastHits))
	r.put(prefix+"/fast_neg", float64(d.FastNeg))
	r.put(prefix+"/slow_walks", float64(d.SlowWalks))
	r.put(prefix+"/hashed_bytes", float64(d.HashedBytes))
	r.put(prefix+"/prefix_memo_hits", float64(d.PrefixMemoHits))
	r.put(prefix+"/dotdot_checks", float64(d.DotDotChecks))
}

// perOp renders a count per operation.
func perOp(v int64, n int) string { return fmt.Sprintf("%.2f", float64(v)/float64(n)) }

// Fig2 reproduces Figure 2: stat latency of the 8-component path across
// the baseline synchronization eras, plus the optimized design. The
// paper's story: latency fell as locking was removed across releases, then
// plateaued; the optimized 3.14 cuts ~26% more.
func Fig2(sc Scale) (*Report, error) {
	r := newReport("fig2", "stat latency of XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF by era",
		"kernel", "era", "stat ns/op", "components/op", "fast hits/op")
	configs := []struct {
		label string
		cfg   dircache.Config
	}{
		{"v2.6.36", dircache.Config{Era: dircache.EraBigLock}},
		{"v3.0", dircache.Config{Era: dircache.EraBucketLock}},
		{"v3.14", dircache.Config{Era: dircache.EraRCU}},
		{"v3.14-opt", func() dircache.Config {
			c := dircache.Optimized()
			c.SignatureSeed = 0xf16
			return c
		}()},
	}
	for _, cfg := range configs {
		sys := dircache.New(cfg.cfg)
		p := sys.Start(dircache.RootCreds())
		if err := buildMicroTree(p); err != nil {
			return nil, err
		}
		ns, d := statPoint(sys, p, "/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF", sc.Ops)
		era := "optimized"
		switch cfg.cfg.Era {
		case dircache.EraBigLock:
			era = "biglock"
		case dircache.EraBucketLock:
			era = "bucketlock"
		case dircache.EraRCU:
			if !cfg.cfg.Features.DirectLookup {
				era = "rcu"
			}
		}
		r.add(cfg.label, era, fmtNS(ns), perOp(d.Components, sc.Ops), perOp(d.FastHits, sc.Ops))
		r.put("stat/"+cfg.label, ns)
		r.putWalk("stat/"+cfg.label, d)
	}
	r.note("paper: 1.07us (2.6.36-era) -> 0.60us (3.14) -> 0.44us optimized (-26%%)")
	return r, nil
}

// Fig3 reproduces Figure 3: the phase decomposition of a lookup for paths
// of increasing depth, unmodified vs optimized. In the baseline every
// phase grows with depth; optimized only Scan&Hash does.
func Fig3(sc Scale) (*Report, error) {
	r := newReport("fig3", "lookup phase breakdown (ns)",
		"path", "config", "init", "scan+hash", "hash lookup", "perm check", "finalize", "total", "components/op")
	for _, mode := range modes {
		cfg := dircache.Baseline()
		if mode == "opt" {
			cfg = dircache.Optimized()
			cfg.SignatureSeed = 0x333
		}
		cfg.PhaseTrace = true
		sys := dircache.New(cfg)
		var mu sync.Mutex
		var acc dircache.PhaseTimes
		var count int64
		sys.SetPhaseSink(func(p dircache.PhaseTimes) {
			mu.Lock()
			acc.Init += p.Init
			acc.ScanHash += p.ScanHash
			acc.HashLookup += p.HashLookup
			acc.PermCheck += p.PermCheck
			acc.Finalize += p.Finalize
			count++
			mu.Unlock()
		})
		p := sys.Start(dircache.RootCreds())
		if err := buildMicroTree(p); err != nil {
			return nil, err
		}
		for _, pt := range microPaths {
			if !strings.HasSuffix(pt.name, "-comp") {
				continue // the depth ladder: 1, 2, 4 and 8 components
			}
			stat := func() { p.Stat(pt.path) }
			for i := 0; i < 32; i++ {
				stat() // warm, off the phase sums
			}
			mu.Lock()
			acc, count = dircache.PhaseTimes{}, 0
			mu.Unlock()
			_, d := measure(sys, sc.Ops, stat)
			mu.Lock()
			n := float64(max(count, 1))
			row := []float64{
				float64(acc.Init) / n, float64(acc.ScanHash) / n,
				float64(acc.HashLookup) / n, float64(acc.PermCheck) / n,
				float64(acc.Finalize) / n,
			}
			mu.Unlock()
			total := row[0] + row[1] + row[2] + row[3] + row[4]
			r.add(pt.name, mode, fmtNS(row[0]), fmtNS(row[1]), fmtNS(row[2]),
				fmtNS(row[3]), fmtNS(row[4]), fmtNS(total), perOp(d.Components, sc.Ops))
			key := pt.name + "/" + mode
			r.put(key+"/total", total)
			r.put(key+"/permcheck", row[3])
			r.put(key+"/hashlookup", row[2])
			r.putWalk(key, d)
		}
	}
	r.note("baseline phases grow with path depth; optimized hash-lookup and perm-check are constant")
	return r, nil
}

// Fig6 reproduces Figure 6: stat and open latency over the path-pattern
// fixture, for unmodified, optimized (fastpath hit), optimized with a
// forced PCC miss + slowpath, and Plan 9 lexical dot-dot semantics.
func Fig6(sc Scale) (*Report, error) {
	r := newReport("fig6", "stat/open latency by path pattern (ns)",
		"path", "config", "stat", "open", "components/stat", "fast hits/stat")
	configs := []struct {
		label string
		cfg   dircache.Config
	}{
		{"unmod", dircache.Baseline()},
		{"opt", func() dircache.Config {
			c := dircache.Optimized()
			c.SignatureSeed = 0x66
			return c
		}()},
		{"opt-miss+slow", func() dircache.Config {
			c := dircache.Optimized()
			c.SignatureSeed = 0x67
			c.ForcePCCMiss = true
			return c
		}()},
		{"opt-lexical", func() dircache.Config {
			c := dircache.Optimized()
			c.SignatureSeed = 0x68
			c.Features.LexicalDotDot = true
			return c
		}()},
	}
	for _, cfg := range configs {
		sys := dircache.New(cfg.cfg)
		p := sys.Start(dircache.RootCreds())
		if err := buildMicroTree(p); err != nil {
			return nil, err
		}
		for _, pt := range microPaths {
			if cfg.label == "opt-lexical" && pt.name != "1-dotdot" && pt.name != "4-dotdot" {
				continue // lexical mode only differs on dot-dot rows
			}
			statNS, d := statPoint(sys, p, pt.path, sc.Ops)
			openNS := openPoint(sys, p, pt.path, sc.Ops)
			r.add(pt.name, cfg.label, fmtNS(statNS), fmtNS(openNS),
				perOp(d.Components, sc.Ops), perOp(d.FastHits, sc.Ops))
			key := "stat/" + pt.name + "/" + cfg.label
			r.put(key, statNS)
			r.putWalk(key, d)
			r.put("open/"+pt.name+"/"+cfg.label, openNS)
		}
	}
	r.note("paper: gains grow with components; miss+slowpath costs 12-93%% over unmod; " +
		"Linux dot-dot semantics cost extra lookups, lexical semantics win 43-52%%")
	return r, nil
}

// Fig7 reproduces Figure 7: chmod and rename latency on directories whose
// cached subtree grows from 1 to 10,000 descendants — in the paper the
// deliberate cost of the coherence protocol (§3.2), here flat (DESIGN §5d).
func Fig7(sc Scale) (*Report, error) {
	r := newReport("fig7", "chmod/rename latency vs cached subtree size (us)",
		"subtree", "config", "chmod us", "rename us", "seq bumps/chmod", "range marks/chmod")
	for _, mode := range modes {
		cfg := dircache.Baseline()
		if mode == "opt" {
			cfg = dircache.Optimized()
			cfg.SignatureSeed = 0x77
		}
		sys := dircache.New(cfg)
		p := sys.Start(dircache.RootCreds())
		for si, st := range sc.SubtreeSizes {
			base := fmt.Sprintf("/t%d", si)
			if err := p.Mkdir(base, 0o755); err != nil {
				return nil, err
			}
			if err := fillSubtree(p, base, st.Depth, st.Files); err != nil {
				return nil, err
			}
			// Warm the cache so the whole subtree is resident and, past
			// admission, published: entries for the mutation to revoke.
			for i := 0; i < 3; i++ {
				if err := touchSubtree(p, base); err != nil {
					return nil, err
				}
			}
			chmodNS, dc := measure(sys, sc.Ops, func() { p.Chmod(base, 0o755) })
			renameNS, dr := measure(sys, sc.Ops, func() {
				p.Rename(base, base+"x")
				p.Rename(base+"x", base)
			})
			renameNS /= 2 // two renames per operation
			label := fmt.Sprintf("depth=%d files=%d", st.Depth, st.Files)
			r.add(label, mode, fmtUS(chmodNS), fmtUS(renameNS),
				perOp(dc.SeqBumps, sc.Ops), perOp(dc.BatchShootdowns, sc.Ops))
			for op, d := range map[string]dircache.CacheStats{"chmod": dc, "rename": dr} {
				key := fmt.Sprintf("%s/%d/%s", op, st.Files, mode)
				r.put(key+"/seq_bumps", float64(d.SeqBumps))
				r.put(key+"/batch_shootdowns", float64(d.BatchShootdowns))
				r.put(key+"/fs_lookups", float64(d.FSLookups))
			}
			r.put(fmt.Sprintf("chmod/%d/%s", st.Files, mode), chmodNS)
			r.put(fmt.Sprintf("rename/%d/%s", st.Files, mode), renameNS)
		}
	}
	r.note("paper: baseline is ~constant; optimized grows linearly in cached children (330us at 10k). Here both mutations take one range mark: flat, and each descendant re-read pays its own discard")
	return r, nil
}

// fillSubtree builds a tree with roughly `files` files spread over `depth`
// levels under base.
func fillSubtree(p *dircache.Process, base string, depth, files int) error {
	if depth == 0 {
		for i := 0; i < files; i++ {
			if err := p.Create(fmt.Sprintf("%s/f%05d", base, i), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	// Distribute: 10 children per level (as the paper's 10^depth shape).
	perDir := files / 10
	if perDir < 1 {
		perDir = 1
	}
	for i := 0; i < 10 && files > 0; i++ {
		sub := fmt.Sprintf("%s/d%d", base, i)
		if err := p.Mkdir(sub, 0o755); err != nil {
			return err
		}
		n := perDir
		if n > files {
			n = files
		}
		if err := fillSubtree(p, sub, depth-1, n); err != nil {
			return err
		}
		files -= n
	}
	return nil
}

// touchSubtree stats every cached path so dentries are resident.
func touchSubtree(p *dircache.Process, base string) error {
	ents, err := p.ReadDir(base)
	if err != nil {
		return err
	}
	for _, e := range ents {
		path := base + "/" + e.Name
		if _, err := p.Stat(path); err != nil {
			return err
		}
		if e.Type == dircache.TypeDirectory {
			if err := touchSubtree(p, path); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: per-operation stat/open latency as reader
// threads scale, unmodified vs optimized. Lookups are read-scalable in
// both; optimized stays strictly faster. The stat/s/core column is the
// scaling headline: per-core throughput should stay flat as threads grow
// (any dip is hot-path contention — shared locks or counter lines).
func Fig8(sc Scale) (*Report, error) {
	r := newReport("fig8", "stat/open latency vs threads (ns/op)",
		"threads", "config", "stat", "open", "stat/s/core", "slow walks")
	const path = "/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF"
	systems := map[string]*dircache.System{}
	for _, mode := range modes {
		cfg := dircache.Baseline()
		if mode == "opt" {
			cfg = dircache.Optimized()
			cfg.SignatureSeed = 0x88
		}
		sys := dircache.New(cfg)
		root := sys.Start(dircache.RootCreds())
		if err := buildMicroTree(root); err != nil {
			return nil, err
		}
		root.Stat(path)
		systems[mode] = sys
	}
	for _, threads := range sc.Threads {
		for _, mode := range modes {
			sys := systems[mode]
			statNS, d := parallel(sys, threads, sc.Ops, func(p *dircache.Process) {
				p.Stat(path)
			})
			openNS, _ := parallel(sys, threads, sc.Ops, func(p *dircache.Process) {
				if f, err := p.Open(path, dircache.O_RDONLY, 0); err == nil {
					f.Close()
				}
			})
			// parallel reports average per-op latency per thread, so
			// 1e9/latency is each core's lookup rate.
			perCore := 1e9 / statNS
			r.add(fmt.Sprintf("%d", threads), mode, fmtNS(statNS), fmtNS(openNS),
				fmt.Sprintf("%.0f", perCore), fmt.Sprintf("%d", d.SlowWalks))
			key := fmt.Sprintf("stat/%d/%s", threads, mode)
			r.put(key, statNS)
			r.put(key+"/lookups", float64(d.Lookups))
			r.put(key+"/slow_walks", float64(d.SlowWalks))
			r.put(fmt.Sprintf("open/%d/%s", threads, mode), openNS)
			r.put(fmt.Sprintf("statrate/%d/%s", threads, mode), perCore)
		}
	}
	r.note("read-side scalability: per-op latency should stay ~flat as threads grow (except biglock)")
	return r, nil
}

// parallel runs op n times on each of threads fresh processes at once, in
// one timed pass after one warm call each, and returns the wall time per
// thread's op (the average latency of one op on one thread) with the work
// counted over the pass.
func parallel(sys *dircache.System, threads, n int, op func(*dircache.Process)) (float64, dircache.CacheStats) {
	procs := make([]*dircache.Process, threads)
	for i := range procs {
		procs[i] = sys.Start(dircache.RootCreds())
		op(procs[i])
	}
	before := sys.Stats()
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, p := range procs {
		wg.Add(1)
		go func(p *dircache.Process) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				op(p)
			}
		}(p)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(n), sys.Stats().Delta(before)
}

// Fig9 reproduces Figure 9: readdir latency (left) and mkstemp-style
// secure file creation latency (right) over directory size.
func Fig9(sc Scale) (*Report, error) {
	r := newReport("fig9", "readdir and mkstemp latency vs directory size",
		"dir size", "config", "readdir us", "mkstemp us", "fs readdirs/listing", "fs lookups/mkstemp")
	for _, mode := range modes {
		cfg := dircache.Baseline()
		if mode == "opt" {
			cfg = dircache.Optimized()
			cfg.SignatureSeed = 0x99
		}
		sys := dircache.New(cfg)
		p := sys.Start(dircache.RootCreds())
		for _, size := range sc.DirSizes {
			dir := fmt.Sprintf("/d%d", size)
			if err := p.Mkdir(dir, 0o755); err != nil {
				return nil, err
			}
			for i := 0; i < size; i++ {
				if err := p.Create(fmt.Sprintf("%s/f%06d", dir, i), 0o644); err != nil {
					return nil, err
				}
			}
			// Warm with one full listing.
			ents, err := p.ReadDir(dir)
			if err != nil || len(ents) != size {
				return nil, fmt.Errorf("fig9 warm listing: %d/%d %v", len(ents), size, err)
			}
			// A listing reads size entries: Ops entries per point.
			listings := max(sc.Ops/size, 1)
			readdirNS, dl := measure(sys, listings, func() {
				if f, err := p.Open(dir, dircache.O_RDONLY|dircache.O_DIRECTORY, 0); err == nil {
					f.ReadDirAll()
					f.Close()
				}
			})
			// mkstemp: create + unlink to hold directory size steady.
			mkstempNS, dm := measure(sys, sc.Ops, func() {
				if f, name, err := p.Mkstemp(dir, "tmp-"); err == nil {
					f.Close()
					p.Unlink(name)
				}
			})
			r.add(fmt.Sprintf("%d", size), mode, fmtUS(readdirNS), fmtUS(mkstempNS),
				perOp(dl.ReaddirFS, listings), perOp(dm.FSLookups, sc.Ops))
			key := fmt.Sprintf("%d/%s", size, mode)
			r.put("readdir/"+key, readdirNS)
			r.put("readdir/"+key+"/listings", float64(listings))
			r.put("readdir/"+key+"/readdir_fs", float64(dl.ReaddirFS))
			r.put("mkstemp/"+key, mkstempNS)
			r.put("mkstemp/"+key+"/fs_lookups", float64(dm.FSLookups))
		}
	}
	r.note("paper: readdir gains 46-74%%, growing with size; mkstemp gains 1-8%%")
	return r, nil
}
