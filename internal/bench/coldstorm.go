package bench

import (
	"fmt"
	"sync"

	"dircache"
)

// Cold-miss storm experiment: concurrent walkers stat every name of one
// cold directory over remotefs, and in-lookup coalescing (plus the cache
// the first resolution fills) keeps the backend LOOKUP count at one per
// name however many walkers race for it.

// coldWidth is the storm directory's child count.
const coldWidth = 16

// coldStormG is the storm's walker count.
const coldStormG = 8

// coldName returns the i'th child name of the storm directory.
func coldName(i int) string { return fmt.Sprintf("f%02d", i) }

// newColdSystem builds an optimized system over a remotefs backend with a
// populated directory at dir.
func newColdSystem(dir string) (*dircache.System, *dircache.Backend, *dircache.Process, error) {
	be := dircache.NewRemoteBackend(dircache.RemoteOptions{RTTNanos: 200_000})
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 0xc01d
	cfg.Root = be
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if err := p.Mkdir(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < coldWidth; i++ {
		if err := p.Create(dir+"/"+coldName(i), 0o644); err != nil {
			return nil, nil, nil, err
		}
	}
	return sys, be, p, nil
}

// rpcDelta subtracts two RemoteOpCounts snapshots and returns the total
// plus the per-op deltas.
func rpcDelta(before, after map[string]int64) (total int64, perOp map[string]int64) {
	perOp = map[string]int64{}
	for op, n := range after {
		if d := n - before[op]; d != 0 {
			perOp[op] = d
		}
		total += n - before[op]
	}
	return total, perOp
}

// ColdStorm reports the cold-miss storm: coldStormG walkers chdir into
// the directory (pinning it through the cache drop), every other dentry
// is dropped, and each walker stats every child by relative name — so
// the only LOOKUPs are the misses themselves. The LOOKUP count is exact
// over the virtual clock; how many walks coalesced rather than hit the
// cache depends on scheduling.
func ColdStorm(sc Scale) (*Report, error) {
	r := newReport("coldstorm", "cold-miss storm over remotefs (RPCs per stat)",
		"phase", "ops", "rpcs", "rpc/op", "detail")

	sys, be, p, err := newColdSystem("/storm")
	if err != nil {
		return nil, err
	}
	tl := sys.EnableTelemetry(dircache.TelemetryOptions{})
	procs := make([]*dircache.Process, coldStormG)
	for i := range procs {
		procs[i] = p.Fork()
		if err := procs[i].Chdir("/storm"); err != nil {
			return nil, err
		}
	}
	sys.DropCaches()
	statBefore := sys.Stats()
	before := be.RemoteOpCounts()
	var wg sync.WaitGroup
	errs := make(chan error, coldStormG)
	for _, proc := range procs {
		wg.Add(1)
		go func(proc *dircache.Process) {
			defer wg.Done()
			for i := 0; i < coldWidth; i++ {
				if _, err := proc.Stat(coldName(i)); err != nil {
					errs <- err
					return
				}
			}
		}(proc)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, fmt.Errorf("storm: %w", err)
	}
	total, perOp := rpcDelta(before, be.RemoteOpCounts())
	d := sys.Stats().Delta(statBefore)
	ops := coldStormG * coldWidth
	r.add("storm", fmt.Sprintf("%d", ops),
		fmt.Sprintf("%d", total), fmt.Sprintf("%.2f", float64(total)/float64(ops)),
		fmt.Sprintf("lookups=%d coalesced=%d waits=%d",
			perOp["lookup"], d.MissCoalesced, d.InLookupWaits))
	r.put("storm/rpc_per_op", float64(total)/float64(ops))
	r.put("storm/lookup_rpcs", float64(perOp["lookup"]))
	r.put("storm/coalesced", float64(d.MissCoalesced))
	if p50, p95, p99, ok := tl.HistogramQuantiles("walk"); ok {
		r.note("storm walk latency p50=%v p95=%v p99=%v over %d walkers "+
			"(wall time; the injected 200us RTT is virtual and excluded)", p50, p95, p99, coldStormG)
		r.put("storm/walk_p95_ns", float64(p95.Nanoseconds()))
	}
	sys.DisableTelemetry()
	r.note("without the in-lookup placeholder the storm's worst case is %d LOOKUPs; "+
		"the rest of the round trips are per-walk revalidation (close-to-open)", ops)
	return r, nil
}
