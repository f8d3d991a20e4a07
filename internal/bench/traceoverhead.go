// The observability tax: end-to-end tracing must be affordable to leave
// on in production at its default 1-in-64 sampling. The experiment runs
// the BenchmarkParallelWalk workload shape — a warm fastpath stat loop
// on a 7-component path — with tracing sampled at 1/64 and with tracing
// disabled, interleaved round-robin so both modes see the same thermal
// and scheduler conditions, and reports the min-of-rounds ratio. It is a
// report, not a gate: the ratio sits at 1.0 inside a single-shot noise
// floor wider than any budget worth setting (benchmark/ measures the
// tracing tax with repetitions as harness.trace_overhead_ratio).
package bench

import (
	"fmt"
	"math"

	"dircache"
)

// traceOverheadRounds is how many interleaved disabled/sampled rounds
// feed the min-of-rounds estimate.
const traceOverheadRounds = 3

// TraceOverhead measures the tracing tax.
func TraceOverhead(sc Scale) (*Report, error) {
	r := newReport("traceoverhead", "walk tracing tax: warm stat loop at 1/64 sampling vs disabled",
		"mode", "ns/op", "ratio")
	onNS, offNS, err := traceOverheadPair(sc)
	if err != nil {
		return nil, err
	}
	ratio := onNS / offNS
	r.add("disabled", fmtNS(offNS), "1.000")
	r.add("sampled-1/64", fmtNS(onNS), fmt.Sprintf("%.3f", ratio))
	r.put("trace/off_ns", offNS)
	r.put("trace/on_ns", onNS)
	r.put("trace/ratio", ratio)
	r.note("disabled tracing is one atomic load + branch per walk; the sampled walk "+
		"builds its span in per-Task scratch (0 allocs) and pays one ring push per %d walks", 64)
	r.note("min of %d interleaved rounds; single-shot wall clock, reported not gated", traceOverheadRounds)
	return r, nil
}

// traceOverheadPair measures the warm stat loop under both modes on one
// shared system, interleaved, returning each mode's best round.
func traceOverheadPair(sc Scale) (onNS, offNS float64, err error) {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 0xd1cac4e
	cfg.Telemetry = dircache.TelemetryOptions{Enabled: true, TraceSample: 64}
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	const path = "/a/b/c/d/e/f/g/file"
	if err := p.MkdirAll("/a/b/c/d/e/f/g", 0o755); err != nil {
		return 0, 0, err
	}
	if err := p.WriteFile(path, nil, 0o644); err != nil {
		return 0, 0, err
	}
	// Warm until the loop is pure fastpath (admission wants repeat touches).
	for i := 0; i < 8; i++ {
		if _, err := p.Stat(path); err != nil {
			return 0, 0, err
		}
	}
	tl := sys.Telemetry()
	// A wider window than the suite default: the signal here is a 1-2%
	// delta between two sub-microsecond loops, well under nsPerOp's noise
	// floor at the default 5ms window.
	window := 4 * sc.MinMeasure
	measure := func(sample int) float64 {
		tl.SetTraceSample(sample)
		return nsPerOp(window, func(n int) {
			for i := 0; i < n; i++ {
				p.Stat(path)
			}
		})
	}
	onNS, offNS = math.MaxFloat64, math.MaxFloat64
	for round := 0; round < traceOverheadRounds; round++ {
		if v := measure(0); v < offNS {
			offNS = v
		}
		if v := measure(64); v < onNS {
			onNS = v
		}
	}
	return onNS, offNS, nil
}
