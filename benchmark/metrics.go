package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"dircache"
)

// metricDef declares a metric as BENCHMARK.json does. Bound is the share
// of the parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, per workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p95_us", "us", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// statCounters maps per-layer metrics to the CacheStats counter each is
// the window delta of, divided by the ops of the window.
var statCounters = []struct{ metric, field string }{
	{"vfs.lookups", "Lookups"},
	{"vfs.slow_walks", "SlowWalks"},
	{"vfs.components", "Components"},
	{"vfs.cache_hits", "CacheHits"},
	{"vfs.negative_hits", "NegativeHits"},
	{"vfs.complete_short", "CompleteShort"},
	{"vfs.retry_walks", "RetryWalks"},
	{"vfs.fs_lookups", "FSLookups"},
	{"vfs.readdir_fs", "ReaddirFS"},
	{"vfs.readdir_cached", "ReaddirCached"},
	{"vfs.miss_coalesced", "MissCoalesced"},
	{"vfs.bulk_populations", "BulkPopulations"},
	{"vfs.evictions", "Evictions"},
	{"core.try_fast", "TryFast"},
	{"core.fast_hits", "FastHits"},
	{"core.fast_neg", "FastNeg"},
	{"core.dlht_misses", "DLHTMisses"},
	{"core.pcc_misses", "PCCMisses"},
	{"core.shortcut_resumes", "ShortcutResumes"},
	{"core.child_hops", "ChildHops"},
	{"core.populations", "Populations"},
	{"core.invalidations", "Invalidations"},
	{"core.seq_bumps", "SeqBumps"},
	{"core.batch_shootdowns", "BatchShootdowns"},
	{"core.lazy_shootdowns", "LazyShootdowns"},
	{"core.admitted", "Admitted"},
	{"core.deferred", "Deferred"},
	{"core.stale_tokens", "StaleTokens"},
	{"sig.hashed_bytes_per_op", "HashedBytes"},
}

// perLayer is every metric the traced pass prints. A metric whose layer a
// workload does not reach reads 0 there.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, c := range statCounters {
		out = append(out, metricDef{Name: c.metric, Unit: "1/op", Better: "lower"})
	}
	return append(out, []metricDef{
		{Name: "vfs.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "vfs.dentries_end", Unit: "count", Better: "lower"},
		{Name: "vfs.shrink_ns_per_dentry", Unit: "ns", Better: "lower"},
		{Name: "vfs.phase_init_ns", Unit: "ns", Better: "lower"},
		{Name: "vfs.phase_finalize_ns", Unit: "ns", Better: "lower"},
		{Name: "sig.phase_scanhash_ns", Unit: "ns", Better: "lower"},
		{Name: "core.phase_hashlookup_ns", Unit: "ns", Better: "lower"},
		{Name: "core.phase_permcheck_ns", Unit: "ns", Better: "lower"},
		{Name: "vfs.baseline_stat_ns", Unit: "ns", Better: "lower"},
		{Name: "core.speedup_vs_baseline", Unit: "ratio", Better: "higher"},
		{Name: "core.forced_miss_stat_ns", Unit: "ns", Better: "lower"},
		{Name: "core.fast_ratio", Unit: "ratio", Better: "higher"},
		{Name: "sig.hash_ns_per_byte", Unit: "ns", Better: "lower"},
		{Name: "slab.live", Unit: "count", Better: "lower"},
		{Name: "slab.limbo", Unit: "count", Better: "lower"},
		{Name: "slab.reclaimed", Unit: "1/op", Better: "lower"},
		{Name: "slab.alloc_ns", Unit: "ns", Better: "lower"},
		{Name: "slab.retire_reclaim_ns", Unit: "ns", Better: "lower"},
		{Name: "memfs.lookup_ns", Unit: "ns", Better: "lower"},
		{Name: "memfs.readdir_ns", Unit: "ns", Better: "lower"},
		{Name: "pool.checkout_ns", Unit: "ns", Better: "lower"},
		{Name: "pool.reuse_ratio", Unit: "ratio", Better: "higher"},
		{Name: "ninep.encode_ns", Unit: "ns", Better: "lower"},
		{Name: "ninep.decode_ns", Unit: "ns", Better: "lower"},
		{Name: "ninep.twalk_us", Unit: "us", Better: "lower"},
		{Name: "ninep.tstat_us", Unit: "us", Better: "lower"},
		{Name: "ninep.tclunk_us", Unit: "us", Better: "lower"},
		{Name: "ninep.rpcs_per_op", Unit: "1/op", Better: "lower"},
		{Name: "ninep.bytes_per_op", Unit: "B/op", Better: "lower"},
		{Name: "ninep.errors_sent", Unit: "1/op", Better: "lower"},
		{Name: "ninep.server_other_us", Unit: "us", Better: "lower"},
		{Name: "net.loopback_rtt_us", Unit: "us", Better: "lower"},
		{Name: "wire_mix.budget_cover_ratio", Unit: "ratio", Better: "higher"},
		{Name: "shard.route_ns", Unit: "ns", Better: "lower"},
		{Name: "shard.router_stat_ns", Unit: "ns", Better: "lower"},
		{Name: "shard.local_stat_ns", Unit: "ns", Better: "lower"},
		{Name: "shard.pump_us", Unit: "us", Better: "lower"},
		{Name: "shard.published", Unit: "1/op", Better: "lower"},
		{Name: "shard.applied", Unit: "1/op", Better: "lower"},
		{Name: "shard.fallbacks", Unit: "1/op", Better: "lower"},
		{Name: "shard.lag_max", Unit: "count", Better: "lower"},
		{Name: "telemetry.events_since_us", Unit: "us", Better: "lower"},
		{Name: "harness.write_p50_us", Unit: "us", Better: "lower"},
		{Name: "harness.fail_ratio", Unit: "ratio", Better: "lower"},
		{Name: "harness.lat_p99_us", Unit: "us", Better: "lower"},
		{Name: "harness.lat_p999_us", Unit: "us", Better: "lower"},
		{Name: "harness.samples", Unit: "count", Better: "higher"},
		{Name: "harness.gen_ns_per_op", Unit: "ns", Better: "lower"},
		{Name: "harness.host_ref_ns", Unit: "ns", Better: "lower"},
		{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "harness.spread_ops_per_s", Unit: "ratio", Better: "lower"},
		{Name: "harness.spread_lat_p50_us", Unit: "ratio", Better: "lower"},
		{Name: "harness.spread_lat_p95_us", Unit: "ratio", Better: "lower"},
	}...)
}()

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

// manifest renders BENCHMARK.json from the tables above.
func manifest() string {
	type workloadDecl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDecl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []metricDef    `json:"end_to_end"`
		PerLayer   []layerDecl    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, workloadDecl{wl.name, wl.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDecl{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b) + "\n"
}

// snapshot is every cumulative counter of an instance at one moment.
type snapshot struct {
	stats    []dircache.CacheStats
	mem      []dircache.MemStats
	counters map[string]float64
}

func takeSnapshot(in instance) snapshot {
	var sn snapshot
	for _, sys := range in.systems() {
		sn.stats = append(sn.stats, sys.Stats())
		sn.mem = append(sn.mem, sys.MemStats())
	}
	sn.counters = in.counters()
	return sn
}

// statDelta sums one CacheStats field's delta over the instance's systems.
func statDelta(before, after snapshot, field string) float64 {
	sum := int64(0)
	for i := range after.stats {
		d := after.stats[i].Delta(before.stats[i])
		sum += reflect.ValueOf(d).FieldByName(field).Int()
	}
	return float64(sum)
}

func arenas(m dircache.MemStats) [4]dircache.ArenaStats {
	return [4]dircache.ArenaStats{m.Dentries, m.ChainNodes, m.FastDentries, m.DLHTNodes}
}

// traceFile is what a traced run leaves in the out directory.
type traceFile struct {
	Workload string               `json:"workload"`
	Stamp    stamp                `json:"stamp"`
	Recorded int                  `json:"spans_recorded"`
	Dropped  int                  `json:"spans_dropped"`
	Layers   map[string]layerTime `json:"layers"`
	Spans    []span               `json:"spans"`
}

// maxSpansWritten bounds the trace file; the layer table covers every
// span recorded.
const maxSpansWritten = 1 << 14

// replay sets wl up under another configuration and returns the median
// sampled latency of its stat class in ns over d.
func replay(wl *workloadDef, s *stream, cfg dircache.Config, o options, d time.Duration, attach func(*dircache.System)) (float64, error) {
	in, ld, _, err := setUp(wl, s, cfg, o)
	if err != nil {
		return 0, err
	}
	defer in.close()
	if attach != nil {
		attach(in.systems()[0])
	}
	w := ld.runFor(d, 0)
	return median(w.latencies().class[cStat]) * 1e3, nil
}

// runTraced is the per-layer pass: an untraced window, a traced one and
// another untraced one on one system, counters read around the three,
// then the direct-call probes and the other configurations. Its windows
// are never used for end-to-end values.
func runTraced(wl *workloadDef, o options) (*result, error) {
	t0 := time.Now()
	s := wl.gen(rand.New(rand.NewSource(o.seed)))
	genNS := float64(time.Since(t0)) / ringSize
	cfg := systemConfig(o.seed)
	res := &result{Workload: wl.name, Stamp: newStamp(o.seed, o.seconds, 3, o.seconds/6, s), Metrics: map[string]value{}}
	for _, d := range perLayer {
		res.set(perLayer, d.Name, 0)
	}
	set := func(name string, v float64) { res.set(perLayer, name, v) }

	in, ld, warm, err := setUp(wl, s, cfg, o)
	if err != nil {
		return nil, err
	}
	defer in.close()

	// Half the time goes to the three windows, the rest to the probes.
	winDur := time.Duration(o.seconds / 6 * float64(time.Second))
	before := takeSnapshot(in)
	plainA := ld.runFor(winDur, 0)
	traced := ld.runFor(winDur, wl.traceEvery)
	plainB := ld.runFor(winDur, 0)
	after := takeSnapshot(in)
	wins := []*window{&plainA, &traced, &plainB}
	ops := 0
	res.Attempted, res.Failed = warm.ops, warm.failed
	for _, w := range wins {
		ops += w.ops
		res.Attempted += w.ops
		res.Failed += w.failed
		res.Stamp.Samples += len(w.samples)
	}

	// Counters: window deltas per op.
	for _, c := range statCounters {
		set(c.metric, statDelta(before, after, c.field)/float64(ops))
	}
	if look := statDelta(before, after, "Lookups"); look > 0 {
		set("vfs.hit_ratio", max(0, 1-statDelta(before, after, "FSLookups")/look))
	}
	if try := statDelta(before, after, "TryFast"); try > 0 {
		set("core.fast_ratio", statDelta(before, after, "FastHits")/try)
	}
	var dentries, live, limbo, reclaimed float64
	for i, m := range after.mem {
		dentries += float64(after.stats[i].Dentries)
		for k, a := range arenas(m) {
			live += float64(a.Live)
			limbo += float64(a.Limbo)
			reclaimed += float64(a.Reclaimed - arenas(before.mem[i])[k].Reclaimed)
		}
	}
	set("vfs.dentries_end", dentries)
	set("slab.live", live)
	set("slab.limbo", limbo)
	set("slab.reclaimed", reclaimed/float64(ops))
	delta := func(name string) float64 { return after.counters[name] - before.counters[name] }

	// The harness's own numbers: how far to trust the rest.
	var all []float64
	var opsPerS, p50, p95 []float64
	for _, w := range []*window{&plainA, &plainB} {
		lat := w.latencies()
		all = append(all, lat.all...)
		opsPerS = append(opsPerS, float64(w.ops)/w.seconds)
		p50 = append(p50, quantile(lat.all, 0.5))
		p95 = append(p95, quantile(lat.all, 0.95))
	}
	set("harness.spread_ops_per_s", spread(opsPerS))
	set("harness.spread_lat_p50_us", spread(p50))
	set("harness.spread_lat_p95_us", spread(p95))
	set("harness.trace_overhead_ratio", (opsPerS[0]+opsPerS[1])/2/(float64(traced.ops)/traced.seconds))
	set("harness.lat_p99_us", quantile(all, 0.99))
	set("harness.lat_p999_us", quantile(all, min(0.999, highestPercentile(len(all)))))
	set("harness.samples", float64(res.Stamp.Samples))
	set("harness.gen_ns_per_op", genNS)
	set("harness.fail_ratio", float64(res.Failed)/float64(res.Attempted))
	tracedLat := traced.latencies()
	set("harness.write_p50_us", tracedLat.writeP50())

	// The trace: self time per layer, and the file.
	layers := byLayer(traced.spans)
	tf := traceFile{Workload: wl.name, Stamp: res.Stamp, Recorded: len(traced.spans), Dropped: traced.dropped,
		Layers: layers, Spans: traced.spans[:min(len(traced.spans), maxSpansWritten)]}
	if err := writeJSON(filepath.Join(o.outDir, "trace-"+wl.name+".json"), tf); err != nil {
		return nil, err
	}

	// Direct-call probes of the host and of the layers every workload
	// stands on.
	set("harness.host_ref_ns", probeHost())
	set("sig.hash_ns_per_byte", probeSig(s, cfg.SignatureSeed))
	allocNS, retireNS := probeSlab()
	set("slab.alloc_ns", allocNS)
	set("slab.retire_reclaim_ns", retireNS)
	lookupNS, readdirNS, err := probeMemfs()
	if err != nil {
		return nil, fmt.Errorf("memfs probe: %w", err)
	}
	set("memfs.lookup_ns", lookupNS)
	set("memfs.readdir_ns", readdirNS)

	switch in := in.(type) {
	case *inproc:
		// The same stream on three more configurations: the paper's
		// per-phase budget (Fig 3), the unmodified baseline, and the
		// fastpath's worst case (Fig 6).
		extra := time.Duration(o.seconds / 12 * float64(time.Second))
		var pm phaseMedians
		phased := cfg
		phased.PhaseTrace = true
		if _, err := replay(wl, s, phased, o, extra, pm.attach); err != nil {
			return nil, err
		}
		set("vfs.phase_init_ns", median(pm.init))
		set("sig.phase_scanhash_ns", median(pm.scanHash))
		set("core.phase_hashlookup_ns", median(pm.hashLookup))
		set("core.phase_permcheck_ns", median(pm.permCheck))
		set("vfs.phase_finalize_ns", median(pm.finalize))
		base, err := replay(wl, s, dircache.Baseline(), o, extra, nil)
		if err != nil {
			return nil, err
		}
		set("vfs.baseline_stat_ns", base)
		if opt := median(tracedLat.class[cStat]) * 1e3; opt > 0 {
			set("core.speedup_vs_baseline", base/opt)
		}
		forced := cfg
		forced.ForcePCCMiss = true
		miss, err := replay(wl, s, forced, o, extra, nil)
		if err != nil {
			return nil, err
		}
		set("core.forced_miss_stat_ns", miss)
	case *wire:
		if err := wireBudget(in, s, layers, tracedLat, delta, float64(ops), set); err != nil {
			return nil, err
		}
	case *sharded:
		set("shard.route_ns", probeRoute(in.g.Router.Ring(), s))
		routerNS, localNS := probeRouterStat(in.g, s)
		set("shard.router_stat_ns", routerNS)
		set("shard.local_stat_ns", localNS)
		set("shard.pump_us", layers["shard.pump"].MedianUS)
		for _, name := range []string{"shard.published", "shard.applied", "shard.fallbacks"} {
			set(name, delta(name)/float64(ops))
		}
		set("shard.lag_max", float64(in.lagMax))
		set("telemetry.events_since_us", probeEventsSince(in.g.Locals[0]))
	}

	set("vfs.shrink_ns_per_dentry", probeShrink(in.systems()[0]))
	res.Findings = in.verify()
	res.Correct = res.Failed == 0 && len(res.Findings) == 0
	return res, nil
}

// wireBudget fills the wire layers' metrics and the budget of one warm
// wire stat (walk, stat, clunk): what the codec, three loopback round
// trips and the in-process stat explain of its median, and what is left
// per RPC for the server's dispatch.
func wireBudget(in *wire, s *stream, layers map[string]layerTime, lat *latencies, delta func(string) float64, ops float64, set func(string, float64)) error {
	set("ninep.twalk_us", layers["ninep.client.walk"].MedianUS)
	set("ninep.tstat_us", layers["ninep.client.stat"].MedianUS)
	set("ninep.tclunk_us", layers["ninep.client.clunk"].MedianUS)
	set("ninep.rpcs_per_op", delta("ninep.rpcs")/ops)
	set("ninep.bytes_per_op", delta("ninep.bytes")/ops)
	set("ninep.errors_sent", delta("ninep.errors_sent")/ops)
	set("pool.checkout_ns", probePool(in.sys))
	if gets := in.counters()["pool.gets"]; gets > 0 {
		set("pool.reuse_ratio", in.counters()["pool.reuses"]/gets)
	}
	files := s.fileTargets()
	encodeNS, decodeNS, frame, err := probeCodec(&files[0])
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	set("ninep.encode_ns", encodeNS)
	set("ninep.decode_ns", decodeNS)
	rtt, err := probeLoopback(frame)
	if err != nil {
		return fmt.Errorf("loopback probe: %w", err)
	}
	set("net.loopback_rtt_us", rtt)

	// The in-process cost of what the server does for the three RPCs,
	// timed on the same system as another process of the same user.
	p := in.sys.Start(dircache.UserCreds(1000, 1000))
	defer p.Exit()
	statNS := perCall(len(files), func() {
		for i := range files {
			fi, _ := p.Stat(files[i].path)
			sink += fi.Inode
		}
	})
	const rpcs = 3
	explained := (encodeNS+decodeNS+statNS)/1e3 + rpcs*rtt
	if op := median(lat.class[cStat]); op > 0 {
		set("wire_mix.budget_cover_ratio", explained/op)
		set("ninep.server_other_us", (op-explained)/rpcs)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
