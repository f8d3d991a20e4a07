package bench

import (
	"fmt"

	"dircache"
)

// latPaths is the subset of the Figure 6 fixture measured by the latency
// distribution experiment: one shallow
// hit, one deep hit, a symlink, and a cached negative.
var latPaths = []struct{ name, path string }{
	{"1-comp", "/FFF"},
	{"4-comp", "/XXX/YYY/ZZZ/FFF"},
	{"8-comp", "/XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF"},
	{"link-f", "/XXX/YYY/ZZZ/LLL"},
	{"neg-f", "/XXX/YYY/ZZZ/NNN"},
}

// Lat reports the warm stat latency distribution per path pattern:
// the timer-loop mean (ns/op, the figure-style datum) alongside
// p50/p95/p99 from the telemetry walk histogram recorded over the same
// loop. The mean answers "how fast", the tail quantiles answer "how
// consistently" — a fastpath regression that only hurts the tail is
// invisible to ns/op.
func Lat(sc Scale) (*Report, error) {
	r := newReport("lat", "warm stat latency distribution (ns)",
		"path", "config", "ns/op", "p50", "p95", "p99")
	for _, mode := range []string{"unmod", "opt"} {
		cfg := dircache.Baseline()
		if mode == "opt" {
			cfg = dircache.Optimized()
			cfg.SignatureSeed = 0x1a7
		}
		sys := dircache.New(cfg)
		p := sys.Start(dircache.RootCreds())
		if err := buildMicroTree(p); err != nil {
			return nil, err
		}
		// Telemetry is attached for the whole measured loop, so ns/op here
		// includes the (enabled) recording cost — self-consistent within
		// the experiment, not comparable to fig6's detached numbers.
		tl := sys.EnableTelemetry(dircache.TelemetryOptions{})
		for _, pt := range latPaths {
			tl.ResetHistograms()
			ns := statLoop(sc, p, pt.path)
			p50, p95, p99, ok := tl.HistogramQuantiles("walk")
			if !ok {
				return nil, fmt.Errorf("lat: empty walk histogram for %s/%s", pt.name, mode)
			}
			r.add(pt.name, mode, fmtNS(ns),
				fmt.Sprintf("%d", p50.Nanoseconds()),
				fmt.Sprintf("%d", p95.Nanoseconds()),
				fmt.Sprintf("%d", p99.Nanoseconds()))
			r.put(fmt.Sprintf("ns/%s/%s", pt.name, mode), ns)
			r.put(fmt.Sprintf("p50/%s/%s", pt.name, mode), float64(p50.Nanoseconds()))
			r.put(fmt.Sprintf("p95/%s/%s", pt.name, mode), float64(p95.Nanoseconds()))
			r.put(fmt.Sprintf("p99/%s/%s", pt.name, mode), float64(p99.Nanoseconds()))
		}
		sys.DisableTelemetry()
	}
	r.note("quantiles come from the telemetry walk histogram over the measured loop; " +
		"ns/op includes enabled-recording cost (compare within this table only)")
	return r, nil
}
