package dircache_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6). Each bench regenerates its experiment through the harness in
// internal/bench and reports the experiment's headline numbers as custom
// metrics, so `go test -bench=. -benchmem` reproduces the whole evaluation.
// cmd/dcbench prints the same experiments as full paper-style tables.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"dircache"
	"dircache/internal/bench"
)

// runExperiment executes one experiment per benchmark run and publishes
// selected report values as metrics.
func runExperiment(b *testing.B, id string, metrics func(*bench.Report, *testing.B)) {
	b.Helper()
	exp, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	sc := bench.SmallScale()
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			metrics(r, b)
		}
	}
}

func BenchmarkFig1PathSyscallFraction(b *testing.B) {
	runExperiment(b, "fig1", func(r *bench.Report, b *testing.B) {
		b.ReportMetric(r.Get("pathfrac/find -name")*100, "find-path-%")
		b.ReportMetric(r.Get("pathfrac/make")*100, "make-path-%")
	})
}

func BenchmarkFig2KernelEras(b *testing.B) {
	runExperiment(b, "fig2", func(r *bench.Report, b *testing.B) {
		b.ReportMetric(r.Get("stat/v2.6.36"), "biglock-ns")
		b.ReportMetric(r.Get("stat/v3.14"), "rcu-ns")
		b.ReportMetric(r.Get("stat/v3.14-opt"), "opt-ns")
	})
}

func BenchmarkFig3LookupBreakdown(b *testing.B) {
	runExperiment(b, "fig3", func(r *bench.Report, b *testing.B) {
		b.ReportMetric(r.Get("8-comp/unmod/total"), "unmod-8comp-ns")
		b.ReportMetric(r.Get("8-comp/opt/total"), "opt-8comp-ns")
	})
}

func BenchmarkFig6PathPatterns(b *testing.B) {
	runExperiment(b, "fig6", func(r *bench.Report, b *testing.B) {
		b.ReportMetric(r.Get("stat/8-comp/unmod"), "unmod-ns")
		b.ReportMetric(r.Get("stat/8-comp/opt"), "opt-ns")
		b.ReportMetric(r.Get("stat/8-comp/opt-miss+slow"), "miss+slow-ns")
	})
}

func BenchmarkFig7InvalidateScaling(b *testing.B) {
	runExperiment(b, "fig7", func(r *bench.Report, b *testing.B) {
		b.ReportMetric(r.Get("chmod/100/unmod")/1e3, "unmod-chmod-us")
		b.ReportMetric(r.Get("chmod/100/opt")/1e3, "opt-chmod-us")
	})
}

func BenchmarkFig8Scalability(b *testing.B) {
	runExperiment(b, "fig8", func(r *bench.Report, b *testing.B) {
		threads := bench.SmallScale().Threads
		last := threads[len(threads)-1]
		b.ReportMetric(r.Get(fmt.Sprintf("stat/%d/unmod", last)), "unmod-ns")
		b.ReportMetric(r.Get(fmt.Sprintf("stat/%d/opt", last)), "opt-ns")
	})
}

func BenchmarkFig9ReaddirMkstemp(b *testing.B) {
	runExperiment(b, "fig9", func(r *bench.Report, b *testing.B) {
		sizes := bench.SmallScale().DirSizes
		last := sizes[len(sizes)-1]
		b.ReportMetric(r.Get(fmt.Sprintf("readdir/%d/unmod", last))/1e3, "unmod-readdir-us")
		b.ReportMetric(r.Get(fmt.Sprintf("readdir/%d/opt", last))/1e3, "opt-readdir-us")
	})
}

func BenchmarkFig10Dovecot(b *testing.B) {
	runExperiment(b, "fig10", func(r *bench.Report, b *testing.B) {
		sizes := bench.SmallScale().MailboxSizes
		last := sizes[len(sizes)-1]
		b.ReportMetric(r.Get(fmt.Sprintf("unmod/%d", last)), "unmod-ops/s")
		b.ReportMetric(r.Get(fmt.Sprintf("opt/%d", last)), "opt-ops/s")
	})
}

func BenchmarkTable1WarmApps(b *testing.B) {
	runExperiment(b, "table1", func(r *bench.Report, b *testing.B) {
		b.ReportMetric(r.Get("unmod/find -name")/1e6, "unmod-find-ms")
		b.ReportMetric(r.Get("opt/find -name")/1e6, "opt-find-ms")
		b.ReportMetric(r.Get("hit/find -name"), "find-hit-%")
	})
}

func BenchmarkTable2ColdApps(b *testing.B) {
	runExperiment(b, "table2", func(r *bench.Report, b *testing.B) {
		b.ReportMetric(r.Get("unmod/find -name")/1e6, "unmod-find-ms")
		b.ReportMetric(r.Get("opt/find -name")/1e6, "opt-find-ms")
	})
}

func BenchmarkTable3Apache(b *testing.B) {
	runExperiment(b, "table3", func(r *bench.Report, b *testing.B) {
		sizes := bench.SmallScale().DirSizes
		last := sizes[len(sizes)-1]
		b.ReportMetric(r.Get(fmt.Sprintf("unmod/%d", last)), "unmod-req/s")
		b.ReportMetric(r.Get(fmt.Sprintf("opt/%d", last)), "opt-req/s")
	})
}

func BenchmarkTable4LoC(b *testing.B) {
	runExperiment(b, "table4", func(r *bench.Report, b *testing.B) {
		b.ReportMetric(r.Get("loc/total"), "total-loc")
		b.ReportMetric(r.Get("loc/internal/core"), "core-loc")
	})
}

// Raw hot-path benchmarks, for profiling the implementations directly.

// BenchmarkStatDepth is the depth sweep behind `make bench-hotpath`: one
// warm Stat of a path 1, 4, 8 and 16 components deep, through the
// baseline component walk and through the whole-path fastpath. The
// paper's claim is the shape of this table — baseline cost grows with
// depth by a hash probe and a permission check per component, optimized
// cost only by the bytes hashed — and DESIGN §5h's per-stage budget is
// read off it.
func BenchmarkStatDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 8, 16} {
		dir := ""
		for i := 1; i < depth; i++ {
			dir += fmt.Sprintf("/d%02d", i)
		}
		path := dir + "/file"
		for _, mode := range []string{"baseline", "optimized"} {
			b.Run(fmt.Sprintf("depth-%d/%s", depth, mode), func(b *testing.B) {
				cfg := dircache.Baseline()
				if mode == "optimized" {
					cfg = dircache.Optimized()
					cfg.SignatureSeed = 1
				}
				p := dircache.New(cfg).Start(dircache.RootCreds())
				if dir != "" {
					if err := p.MkdirAll(dir, 0o755); err != nil {
						b.Fatal(err)
					}
				}
				if err := p.WriteFile(path, nil, 0o644); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < 4; i++ { // past admission, onto the hit path
					if _, err := p.Stat(path); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Stat(path)
				}
			})
		}
	}
}

// BenchmarkChmodSubtree is Figure 7's chmod curve as `make bench-hotpath`
// keeps it: chmod of a directory with 1, 10, 100 and 1 000 published
// descendants. The paper's optimized curve is linear in the cached subtree
// (§3.2's recursive seq bump); here the permission change takes the same
// range shootdown as rename, so the curve is flat and allocates nothing,
// and the cost moves to the first probe of each descendant actually
// re-read.
func BenchmarkChmodSubtree(b *testing.B) {
	for _, n := range []int{1, 10, 100, 1000} {
		for _, mode := range []string{"baseline", "optimized"} {
			b.Run(fmt.Sprintf("descendants-%d/%s", n, mode), func(b *testing.B) {
				cfg := dircache.Baseline()
				if mode == "optimized" {
					cfg = dircache.Optimized()
					cfg.SignatureSeed = 1
				}
				p := dircache.New(cfg).Start(dircache.RootCreds())
				if err := p.Mkdir("/t", 0o755); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					path := fmt.Sprintf("/t/f%04d", i)
					if err := p.WriteFile(path, nil, 0o644); err != nil {
						b.Fatal(err)
					}
					for j := 0; j < 3; j++ { // past admission: published
						if _, err := p.Stat(path); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Chmod("/t", 0o755)
				}
			})
		}
	}
}

// BenchmarkShrink is what one eviction costs as the cache grows:
// ShrinkCache(256) on caches of 1 k, 4 k, 64 k and 1 M dentries, reported
// per victim. The shrinker's hand steps over slab slots until it has its
// victims, so the figure is flat in cache size (scan-every-entry-and-sort
// was linear times log: 4 k dentries cost 16x what 256 did per call). Each
// iteration re-creates the 256 files it evicted, off the clock, so the
// cache keeps its size however long the benchmark runs. -short leaves out
// the 1 M row, which needs about a gigabyte.
func BenchmarkShrink(b *testing.B) {
	const batch = 256
	for _, size := range []int{1 << 10, 4 << 10, 64 << 10, 1 << 20} {
		if size > 64<<10 && testing.Short() {
			continue
		}
		for _, mode := range []string{"baseline", "optimized"} {
			b.Run(fmt.Sprintf("dentries-%d/%s", size, mode), func(b *testing.B) {
				cfg := dircache.Baseline()
				if mode == "optimized" {
					cfg = dircache.Optimized()
					cfg.SignatureSeed = 1
				}
				sys := dircache.New(cfg)
				p := sys.Start(dircache.RootCreds())
				next := 0
				fill := func() {
					for sys.DentryCount() < size {
						if next%batch == 0 {
							if err := p.Mkdir(fmt.Sprintf("/d%05d", next/batch), 0o755); err != nil {
								b.Fatal(err)
							}
						}
						if err := p.Create(fmt.Sprintf("/d%05d/f%03d", next/batch, next%batch), 0o644); err != nil {
							b.Fatal(err)
						}
						next++
					}
				}
				fill()
				// Every dentry enters referenced, so the first call's hand goes
				// round the whole slab taking flags before it takes a victim:
				// a fixed cost of filling the cache, kept off the clock.
				sys.ShrinkCache(batch)
				fill()
				b.ReportAllocs()
				b.ResetTimer()
				evicted := 0
				for i := 0; i < b.N; i++ {
					evicted += sys.ShrinkCache(batch)
					b.StopTimer()
					fill()
					b.StartTimer()
				}
				b.StopTimer()
				if evicted != b.N*batch {
					b.Fatalf("evicted %d dentries in %d calls of ShrinkCache(%d)", evicted, b.N, batch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evicted), "ns/victim")
			})
		}
	}
}

// BenchmarkSlowWalkAtScale is the other end of sizing the dentry hash table
// by what it holds: a cache-less-fastpath (Baseline) system's Stat of
// resident 4-component paths — four table probes each — with 1<<16 and
// 1<<20 dentries resident. The table doubles as it fills, so the mean
// chain is at most one node at either size; at the fixed 1<<18 buckets it
// replaced, 1<<20 names meant a mean chain of four on every component.
// Reported, not gated. -short leaves out the 1<<20 row, which needs about
// a gigabyte.
func BenchmarkSlowWalkAtScale(b *testing.B) {
	for _, size := range []int{1 << 16, 1 << 20} {
		if size > 1<<16 && testing.Short() {
			continue
		}
		b.Run(fmt.Sprintf("dentries-%d", size), func(b *testing.B) {
			sys := dircache.New(dircache.Baseline())
			p := sys.Start(dircache.RootCreds())
			if err := p.Mkdir("/s", 0o755); err != nil {
				b.Fatal(err)
			}
			var paths []string
			for d := 0; sys.DentryCount() < size; d++ {
				for e := 0; e < 16; e++ {
					dir := fmt.Sprintf("/s/d%04d/e%02d", d, e)
					if err := p.MkdirAll(dir, 0o755); err != nil {
						b.Fatal(err)
					}
					for f := 0; f < 16; f++ {
						if err := p.Create(fmt.Sprintf("%s/f%02d", dir, f), 0o644); err != nil {
							b.Fatal(err)
						}
					}
					paths = append(paths, dir+"/f07")
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Stat(paths[(i*7919)%len(paths)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			empty, one, two, more := sys.BucketStats()
			b.ReportMetric(float64(sys.DentryCount())/float64(empty+one+two+more), "names/bucket")
		})
	}
}

// BenchmarkParallelWalk measures warm-path lookup throughput under
// concurrency: N goroutines all stat the same deep path. "baseline" takes
// the slow walk (hash-table hits + LRU accounting); "optimized" takes the
// whole-path fastpath (DLHT + PCC). This is the contention scaling curve
// the paper's §6.5 is about: per-op cost should stay flat as goroutines
// grow, so shared-cache-line traffic on the hot path shows up directly.
func BenchmarkParallelWalk(b *testing.B) {
	const path = "/a/b/c/d/e/f/g/file"
	for _, mode := range []string{"baseline", "optimized"} {
		for _, g := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines-%d", mode, g), func(b *testing.B) {
				cfg := dircache.Baseline()
				if mode == "optimized" {
					cfg = dircache.Optimized()
					cfg.SignatureSeed = 1
				}
				sys := dircache.New(cfg)
				setup := sys.Start(dircache.RootCreds())
				if err := setup.MkdirAll("/a/b/c/d/e/f/g", 0o755); err != nil {
					b.Fatal(err)
				}
				if err := setup.WriteFile(path, nil, 0o644); err != nil {
					b.Fatal(err)
				}
				// One process per worker; all share the root credential
				// (and therefore one PCC). Warm every process so the
				// measured loop stays on the hit path.
				workers := g
				if n := runtime.GOMAXPROCS(0); n > 1 {
					workers = g * n
				}
				procs := make([]*dircache.Process, workers)
				for i := range procs {
					procs[i] = sys.Start(dircache.RootCreds())
					if _, err := procs[i].Stat(path); err != nil {
						b.Fatal(err)
					}
				}
				var next atomic.Int64
				b.SetParallelism(g)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					p := procs[int(next.Add(1)-1)%len(procs)]
					for pb.Next() {
						p.Stat(path)
					}
				})
			})
		}
	}
}
