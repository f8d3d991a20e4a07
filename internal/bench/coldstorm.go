package bench

import (
	"fmt"
	"sync"

	"dircache"
)

// Cold-miss storm experiment: how many server round trips a cold
// directory scan over remotefs costs with readdir-driven bulk population
// on vs off, and how miss coalescing behaves when concurrent walkers hit
// the same cold tree. The deterministic scan half (ColdTrajectory) is
// asserted by TestColdStormShape.

// coldWidth is the scanned directory's child count — the acceptance
// configuration (a 16-wide cold scan must cost >= 5x fewer RPCs with
// bulk population on).
const coldWidth = 16

// coldStormG is the storm phase's walker count.
const coldStormG = 8

// coldName returns the i'th child name of the scan directory.
func coldName(i int) string { return fmt.Sprintf("f%02d", i) }

// newColdSystem builds an optimized system over a remotefs backend with a
// populated scan directory at dir. bulk is whether the server offers
// readdir-plus (CheapReadDir) — the capability that makes the cache bulk
// populate, so the off arm is the same cache over a server without it.
func newColdSystem(dir string, bulk bool) (*dircache.System, *dircache.Backend, *dircache.Process, error) {
	be := dircache.NewRemoteBackend(dircache.RemoteOptions{
		RTTNanos:     200_000,
		CheapReadDir: bulk,
	})
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

// coldScan measures one deterministic single-threaded cold scan: chdir
// into the scan directory (pinning it through the cache drop), drop every
// other dentry, then stat each child by relative name — so the only
// backend traffic is the misses themselves, not per-walk revalidation of
// ancestor components. Returns cold-scan RPCs, warm-rescan RPCs, and the
// bulk population count.
func coldScan(bulk bool) (cold, warm int64, bulkPops int64, err error) {
	sys, be, p, err := newColdSystem("/data", bulk)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := p.Chdir("/data"); err != nil {
		return 0, 0, 0, err
	}
	sys.DropCaches()
	statBefore := sys.Stats()
	before := be.RemoteOpCounts()
	for i := 0; i < coldWidth; i++ {
		if _, err := p.Stat(coldName(i)); err != nil {
			return 0, 0, 0, fmt.Errorf("cold stat %s: %w", coldName(i), err)
		}
	}
	mid := be.RemoteOpCounts()
	for i := 0; i < coldWidth; i++ {
		if _, err := p.Stat(coldName(i)); err != nil {
			return 0, 0, 0, fmt.Errorf("warm stat %s: %w", coldName(i), err)
		}
	}
	after := be.RemoteOpCounts()
	coldT, _ := rpcDelta(before, mid)
	warmT, _ := rpcDelta(mid, after)
	d := sys.Stats().Delta(statBefore)
	return coldT, warmT, d.BulkPopulations, nil
}

// ColdStorm reports the cold-miss storm experiment: the deterministic
// scan comparison plus a concurrent storm phase
// showing miss coalescing soak up duplicate LOOKUPs.
func ColdStorm(sc Scale) (*Report, error) {
	r := newReport("coldstorm", "cold-miss storms over remotefs (RPCs per stat)",
		"phase", "config", "ops", "rpcs", "rpc/op", "detail")

	det, err := ColdTrajectory(sc)
	if err != nil {
		return nil, err
	}
	for _, mode := range []string{"bulkoff", "bulkon"} {
		cold := det["scan/rpc/"+mode]
		warm := det["scan/warm_rpc/"+mode]
		r.add("cold-scan", mode, fmt.Sprintf("%d", coldWidth),
			fmt.Sprintf("%.0f", cold), fmt.Sprintf("%.2f", cold/coldWidth), "")
		r.add("warm-rescan", mode, fmt.Sprintf("%d", coldWidth),
			fmt.Sprintf("%.0f", warm), fmt.Sprintf("%.2f", warm/coldWidth),
			"per-walk revalidation (close-to-open)")
	}
	for k, v := range det {
		r.put(k, v)
	}
	ratio := det["scan/bulk_ratio"]
	r.note("bulk population answers the %d-wide cold scan with %.1fx fewer round trips "+
		"(acceptance floor: 5x)", coldWidth, ratio)

	// Storm phase: concurrent walkers over one cold tree. Scheduling-
	// dependent, so reported but not asserted.
	sys, be, p, err := newColdSystem("/storm", true)
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
	r.add("storm", "bulkon", fmt.Sprintf("%d", ops),
		fmt.Sprintf("%d", total), fmt.Sprintf("%.2f", float64(total)/float64(ops)),
		fmt.Sprintf("lookups=%d coalesced=%d waits=%d bulks=%d",
			perOp["lookup"], d.MissCoalesced, d.InLookupWaits, d.BulkPopulations))
	r.put("storm/rpc_per_op", float64(total)/float64(ops))
	r.put("storm/lookup_rpcs", float64(perOp["lookup"]))
	r.put("storm/coalesced", float64(d.MissCoalesced))
	if p50, p95, p99, ok := tl.HistogramQuantiles("walk"); ok {
		r.note("storm walk latency p50=%v p95=%v p99=%v over %d walkers "+
			"(wall time; the injected 200us RTT is virtual and excluded)", p50, p95, p99, coldStormG)
		r.put("storm/walk_p95_ns", float64(p95.Nanoseconds()))
	}
	sys.DisableTelemetry()
	r.note("without coalescing and bulk population the storm's worst case is %d LOOKUPs; "+
		"the cold-scan rows above are deterministic counts (TestColdStormShape)", ops)
	return r, nil
}

// ColdTrajectory runs the deterministic half of the cold-storm experiment
// — the single-threaded cold scan with bulk population on and off — and
// returns the flat "series/point" metric map (exact RPC counts over a
// virtual clock, so any drift is a behavior change, not noise).
func ColdTrajectory(Scale) (map[string]float64, error) {
	out := map[string]float64{}
	for _, mode := range []struct {
		name string
		bulk bool
	}{{"bulkoff", false}, {"bulkon", true}} {
		cold, warm, bulkPops, err := coldScan(mode.bulk)
		if err != nil {
			return nil, fmt.Errorf("coldstorm %s: %w", mode.name, err)
		}
		out["scan/rpc/"+mode.name] = float64(cold)
		out["scan/warm_rpc/"+mode.name] = float64(warm)
		out["scan/bulk_populations/"+mode.name] = float64(bulkPops)
	}
	if on := out["scan/rpc/bulkon"]; on > 0 {
		out["scan/bulk_ratio"] = out["scan/rpc/bulkoff"] / on
	}
	return out, nil
}
