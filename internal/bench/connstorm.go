package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dircache"
	"dircache/internal/ninep"
	"dircache/internal/workload"
)

// Connection-storm experiment: N 9P connections over loopback against one
// dcserve-style server, all walking the same deep path. The deterministic
// half — backend Lookups during the cold storm (miss coalescing must hold
// it to exactly one per path component) and wire RPCs per warm walk — is
// asserted by TestConnStormTrajectory. Latency quantiles from the per-op
// server histograms are reported but not gated (wall-clock,
// scheduler-dependent).

const (
	// connStormConns is the client connection count (acceptance floor: 64).
	connStormConns = 64
	// connStormUIDs is how many distinct principals the connections
	// attach as; connections of one principal share a PCC via the
	// server's per-uname identity.
	connStormUIDs = 8
	// connStormDepth is the generated spine depth; the walked path has
	// connStormDepth+2 components (/srv + spine + leaf file).
	connStormDepth = 12
	// connStormWarmWalks is the per-connection walk count in the warm
	// measurement phase.
	connStormWarmWalks = 25
)

// connStormResult carries one storm run's outcomes.
type connStormResult struct {
	det   map[string]float64 // the deterministic counts
	srv   ninep.ServerStats
	tl    *dircache.Telemetry
	depth int
}

// runConnStorm builds an optimized in-memory system with a deep tree,
// serves it over 9P on loopback, and drives the cold and warm phases.
func runConnStorm() (*connStormResult, error) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 0x5e7e
	sys := dircache.New(cfg)
	tl := sys.EnableTelemetry(dircache.TelemetryOptions{})

	p := sys.Start(dircache.RootCreds())
	tree, err := workload.GenerateDeepTree(p, "/srv", workload.DeepSpec{
		Seed: 0x5e7e, Depth: connStormDepth, Shape: "maven", Fanout: 2, Leaves: 2,
	})
	if err != nil {
		return nil, err
	}
	p.Exit()
	leaf := tree.Leaves[0]
	components := int64(strings.Count(leaf, "/")) // "/srv/a/.../leaf000.bin"

	srv, err := ninep.Serve(sys, "127.0.0.1:0", ninep.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Dial and attach every connection up front, each under one of the
	// storm's principals, so the storm below measures walks, not dials.
	clients := make([]*ninep.Client, connStormConns)
	roots := make([]*ninep.Fid, connStormConns)
	for i := range clients {
		c, err := ninep.Dial(srv.Addr().String())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
		root, err := c.Attach(fmt.Sprintf("%d", 1000+i%connStormUIDs), "")
		if err != nil {
			return nil, err
		}
		roots[i] = root
	}
	rel := strings.TrimPrefix(leaf, "/")

	// Cold storm: drop every cache, then walk the same deep path from all
	// connections at once. In-lookup dentries coalesce the stampede down
	// to exactly one backend Lookup per path component.
	sys.DropCaches()
	before := sys.Stats()
	errs := make(chan error, connStormConns)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := roots[i].WalkPath(rel)
			if err != nil {
				errs <- fmt.Errorf("cold walk conn %d: %w", i, err)
				return
			}
			errs <- f.Clunk()
		}(i)
	}
	wg.Wait()
	close(errs)
	coldErrors := 0
	for err := range errs {
		if err != nil {
			coldErrors++
		}
	}
	coldDelta := sys.Stats().Delta(before)

	// Warm phase: repeated deep walks per connection. Every walk is one
	// RPC on the wire (its Twalk carries the previous walk's clunk) and,
	// server-side, one DLHT full-path probe.
	warmBefore := sys.Stats()
	rpcBefore := int64(0)
	for _, c := range clients {
		rpcBefore += c.RPCs()
	}
	t0 := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < connStormWarmWalks; j++ {
				f, err := roots[i].WalkPath(rel)
				if err != nil {
					return
				}
				f.Clunk()
			}
		}(i)
	}
	wg.Wait()
	warmWall := time.Since(t0)
	rpcAfter := int64(0)
	for _, c := range clients {
		rpcAfter += c.RPCs()
	}
	warmDelta := sys.Stats().Delta(warmBefore)
	warmWalks := int64(connStormConns * connStormWarmWalks)

	res := &connStormResult{det: map[string]float64{}, tl: tl, depth: connStormDepth}
	res.det["storm/conns"] = connStormConns
	res.det["storm/uids"] = connStormUIDs
	res.det["storm/components"] = float64(components)
	res.det["storm/cold_fs_lookups"] = float64(coldDelta.FSLookups)
	res.det["storm/cold_errors"] = float64(coldErrors)
	res.det["storm/warm_fs_lookups"] = float64(warmDelta.FSLookups)
	res.det["storm/warm_walks"] = float64(warmWalks)
	res.det["storm/rpcs_per_walk"] = float64(rpcAfter-rpcBefore) / float64(warmWalks)
	res.det["storm/warm_wall_ns"] = float64(warmWall.Nanoseconds())

	// Non-deterministic context for the report.
	res.det["storm/coalesced"] = float64(coldDelta.MissCoalesced)
	res.det["storm/fast_hits_warm"] = float64(warmDelta.FastHits)

	res.srv = srv.Stats()
	return res, nil
}

// ConnStorm reports the connection-storm experiment: the
// deterministic counts plus wire-op latency quantiles from the server's
// telemetry histograms.
func ConnStorm(Scale) (*Report, error) {
	r := newReport("connstorm", "9P connection storm: coalesced cold walks, warm wire latency",
		"phase", "conns", "walks", "fs lookups", "detail")

	res, err := runConnStorm()
	if err != nil {
		return nil, err
	}
	for k, v := range res.det {
		r.put(k, v)
	}
	comp := res.det["storm/components"]
	r.add("cold", fmt.Sprintf("%d", connStormConns), fmt.Sprintf("%d", connStormConns),
		fmt.Sprintf("%.0f", res.det["storm/cold_fs_lookups"]),
		fmt.Sprintf("%d-deep path, %.0f components, coalesced=%.0f",
			res.depth, comp, res.det["storm/coalesced"]))
	r.add("warm", fmt.Sprintf("%d", connStormConns),
		fmt.Sprintf("%.0f", res.det["storm/warm_walks"]),
		fmt.Sprintf("%.0f", res.det["storm/warm_fs_lookups"]),
		fmt.Sprintf("%.2f RPCs/walk, fastpath hits=%.0f",
			res.det["storm/rpcs_per_walk"], res.det["storm/fast_hits_warm"]))

	if res.det["storm/cold_fs_lookups"] == comp {
		r.note("cold storm held to exactly one backend Lookup per path component "+
			"(%.0f for %d concurrent connections) — the miss-coalescing guarantee on the wire", comp, connStormConns)
	} else {
		r.note("WARNING: cold storm cost %.0f backend Lookups for a %.0f-component path",
			res.det["storm/cold_fs_lookups"], comp)
	}
	if p50, p95, p99, ok := res.tl.HistogramQuantiles("ninep_walk"); ok {
		r.note("Twalk handling latency p50=%v p95=%v p99=%v", p50, p95, p99)
		r.put("storm/twalk_p99_ns", float64(p99.Nanoseconds()))
	}
	if p50, p95, p99, ok := res.tl.HistogramQuantiles("walk"); ok {
		r.note("kernel walk latency under the storm p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p50, p95, p99, ok := res.tl.HistogramQuantiles("ninep_attach"); ok {
		r.note("attach latency p50=%v p95=%v p99=%v (includes identity + pool checkout)", p50, p95, p99)
	}
	r.note("server totals: %d conns, %d ops, %d walks, %d errors; pool gets=%d reuses=%d",
		res.srv.ConnsTotal, res.srv.Ops, res.srv.Walks, res.srv.ErrorsSent,
		res.srv.PoolGets, res.srv.PoolReuses)
	r.note("counts are deterministic (TestConnStormTrajectory); latencies are wall-clock and not gated")
	return r, nil
}
