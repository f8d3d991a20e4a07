package dircache

import (
	"math"
	"runtime/metrics"

	"dircache/internal/telemetry"
)

// TelemetryOptions configures the observability subsystem (latency
// histograms, sampled walk traces, and the metrics exporter) that
// System.EnableTelemetry attaches. A System without one attached pays one
// atomic pointer load and one branch per walk, nothing else.
type TelemetryOptions struct {
	// TraceSample records the full event sequence of 1-in-N walks into
	// the trace ring (0 disables tracing, 1 traces every walk).
	TraceSample int
	// SlowNS is the flight recorder's slow threshold in nanoseconds
	// (0 = 1ms); SetSlowThreshold changes it.
	SlowNS int64
}

// Telemetry is a System's attached observability subsystem: latency
// histograms for each lookup cost center, a sampled walk trace ring, a
// slow-walk flight recorder, the coherence event journal, and exporters
// in Prometheus text format and JSON (Handler, Serve, WritePrometheus,
// MetricsJSON, HistogramQuantiles, ...). It is internal/telemetry's type
// itself. Obtain one from System.Telemetry or System.EnableTelemetry.
type Telemetry = telemetry.Telemetry

// MetricsServer is a live HTTP metrics endpoint started by Telemetry.Serve.
type MetricsServer = telemetry.Server

// Telemetry returns the System's attached telemetry subsystem, or nil
// when none is attached.
func (s *System) Telemetry() *Telemetry { return s.k.Telemetry() }

// EnableTelemetry attaches a freshly built telemetry subsystem to the
// System (replacing any previous one); it records while attached. The System's
// CacheStats are registered with the exporter under source "system",
// its slab-arena occupancy under source "mem" (per-arena live/free/
// limbo gauges, reclamation counters, and the process's worst observed
// GC stop-the-world pause).
func (s *System) EnableTelemetry(o TelemetryOptions) *Telemetry {
	t := telemetry.New(telemetry.Options{TraceSample: o.TraceSample, SlowNS: o.SlowNS})
	t.RegisterStats("system", func() map[string]int64 { return telemetry.Flatten(s.Stats()) })
	t.RegisterStats("inspect", func() map[string]int64 { return s.Inspect().counters() })
	t.RegisterStats("mem", func() map[string]int64 {
		out := telemetry.Flatten(s.MemStats())
		out["gc_max_pause_ns"] = gcMaxPauseNS()
		return out
	})
	s.k.SetTelemetry(t)
	return t
}

// gcMaxPauseNS reports the upper edge of the highest populated bucket
// of the process's cumulative GC stop-the-world pause histogram — the
// worst pause observed since process start, which is the figure the
// memscale work budgets (slab arenas exist to keep it flat as the cache
// grows).
func gcMaxPauseNS() int64 {
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] == 0 {
			continue
		}
		edge := h.Buckets[i+1]
		if math.IsInf(edge, 1) {
			edge = h.Buckets[i]
		}
		return int64(edge * 1e9)
	}
	return 0
}

// DisableTelemetry detaches the System's telemetry subsystem, restoring
// the zero-cost hot path. In-flight walks finish against the instance
// they observed at entry; its accumulated data remains readable through
// any retained *Telemetry handle.
func (s *System) DisableTelemetry() { s.k.SetTelemetry(nil) }

// JournalEvent is one coherence journal record: an invalidation-relevant
// mutation (seq/epoch bump, DLHT insert/remove, PCC flush,
// DIR_COMPLETE transition, eviction) with its time and its place in the
// dump's timeline.
type JournalEvent = telemetry.Event
