package dircache

import (
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"time"

	"dircache/internal/telemetry"
)

// TelemetryOptions configures the observability subsystem (latency
// histograms, sampled walk traces, and the metrics exporter). The zero
// value leaves telemetry off entirely: the walk hot path then pays one
// atomic pointer load and one branch, nothing else.
type TelemetryOptions struct {
	// Enabled attaches a telemetry subsystem to the System at
	// construction and starts recording.
	Enabled bool
	// TraceSample records the full event sequence of 1-in-N walks into
	// the trace ring (0 disables tracing, 1 traces every walk). Only
	// meaningful with Enabled.
	TraceSample int
	// SlowNS is the flight recorder's default slow threshold in
	// nanoseconds (0 = 1ms). Per-op overrides via SetSlowThreshold.
	SlowNS int64
}

// Telemetry is a System's attached observability subsystem: latency
// histograms for each lookup cost center, a sampled walk trace ring, and
// exporters in Prometheus text format and JSON. Obtain one from
// System.Telemetry or System.EnableTelemetry.
type Telemetry struct {
	t *telemetry.Telemetry
}

// MetricsServer is a live HTTP metrics endpoint started by Telemetry.Serve.
type MetricsServer = telemetry.Server

// NewTelemetry builds a standalone telemetry subsystem, already
// recording, not yet attached to any System. Pair with
// SetDefaultTelemetry to share one exporter across many Systems.
func NewTelemetry(o TelemetryOptions) *Telemetry {
	t := telemetry.New(o.rawOptions())
	t.Enable()
	return &Telemetry{t: t}
}

func (o TelemetryOptions) rawOptions() telemetry.Options {
	return telemetry.Options{TraceSample: o.TraceSample, SlowNS: o.SlowNS}
}

// SetDefaultTelemetry installs tl (nil clears) as the process-wide
// default: every System built afterwards whose own Config.Telemetry is
// not enabled attaches to it, so one live exporter observes them all.
// Tools like dcbench use this to expose metrics for the Systems their
// experiments construct.
func SetDefaultTelemetry(tl *Telemetry) {
	if tl == nil {
		telemetry.SetDefault(nil)
		return
	}
	telemetry.SetDefault(tl.t)
}

// Telemetry returns the System's attached telemetry subsystem, or nil
// when none is attached.
func (s *System) Telemetry() *Telemetry {
	if t := s.k.Telemetry(); t != nil {
		return &Telemetry{t: t}
	}
	return nil
}

// EnableTelemetry attaches a freshly built telemetry subsystem to the
// System (replacing any previous one) and starts recording. The System's
// CacheStats are registered with the exporter under source "system",
// its slab-arena occupancy under source "mem" (per-arena live/free/
// limbo gauges, reclamation counters, and the process's worst observed
// GC stop-the-world pause).
func (s *System) EnableTelemetry(o TelemetryOptions) *Telemetry {
	t := telemetry.New(o.rawOptions())
	t.RegisterStats("system", func() map[string]int64 { return s.Stats().counters() })
	t.RegisterStats("inspect", func() map[string]int64 { return s.Inspect().counters() })
	t.RegisterStats("mem", func() map[string]int64 {
		out := s.MemStats().counters()
		out["gc_max_pause_ns"] = gcMaxPauseNS()
		return out
	})
	t.Enable()
	s.k.SetTelemetry(t)
	return &Telemetry{t: t}
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
func (s *System) DisableTelemetry() {
	if t := s.k.Telemetry(); t != nil {
		t.Disable()
	}
	s.k.SetTelemetry(nil)
}

// Handler returns the metrics HTTP handler: /metrics (Prometheus text
// format), /traces (JSON trace dump), /events (coherence event journal),
// and /metrics.json.
func (tl *Telemetry) Handler() http.Handler { return tl.t.Handler() }

// DebugHandler returns Handler plus the Go runtime's own observability:
// net/http/pprof under /debug/pprof/ and a "runtime" metrics source
// (goroutines, heap, GC pauses) folded into /metrics.
func (tl *Telemetry) DebugHandler() http.Handler { return tl.t.DebugHandler() }

// Serve starts an HTTP metrics endpoint on addr (e.g. "localhost:9150",
// or ":0" for an ephemeral port — read it back from MetricsServer.Addr).
func (tl *Telemetry) Serve(addr string) (*MetricsServer, error) { return tl.t.Serve(addr) }

// ServeDebug is Serve with DebugHandler: metrics plus pprof and runtime
// metrics. Tools enable it behind their -pprof flag.
func (tl *Telemetry) ServeDebug(addr string) (*MetricsServer, error) { return tl.t.ServeDebug(addr) }

// WritePrometheus renders every histogram and registered counter in the
// Prometheus text exposition format.
func (tl *Telemetry) WritePrometheus(w io.Writer) { tl.t.WritePrometheus(w) }

// MetricsJSON renders histograms (with precomputed p50/p95/p99) and
// counters as one JSON document.
func (tl *Telemetry) MetricsJSON() []byte { return tl.t.MetricsJSON() }

// TracesJSON renders the sampled walk trace ring as JSON, oldest first.
func (tl *Telemetry) TracesJSON() []byte { return tl.t.TracesJSON() }

// EventsJSON renders the coherence event journal as JSON, oldest first,
// with per-kind totals and the dropped-event count.
func (tl *Telemetry) EventsJSON() []byte { return tl.t.EventsJSON() }

// Events returns the retained journal events (oldest first, IDs dense in
// that order) and how many older events the ring has dropped.
func (tl *Telemetry) Events() ([]JournalEvent, uint64) { return tl.t.Events() }

// EventsDropped reports how many journal events were dropped so far.
func (tl *Telemetry) EventsDropped() uint64 { return tl.t.EventsDropped() }

// EventCounts reports how many journal events were emitted per kind name
// since the journal was created, dropped ones included.
func (tl *Telemetry) EventCounts() map[string]uint64 {
	perKind, _ := tl.t.EventCounts()
	out := make(map[string]uint64)
	for i, n := range perKind {
		if n > 0 {
			out[telemetry.JournalKind(i).String()] = n
		}
	}
	return out
}

// JournalEvent is one coherence journal record: an invalidation-relevant
// mutation (seq/epoch bump, DLHT insert/remove/sweep, PCC flush/resize,
// DIR_COMPLETE transition, eviction) with its time and its place in the
// dump's timeline.
type JournalEvent = telemetry.Event

// TraceCount reports how many sampled walk traces the ring retains.
func (tl *Telemetry) TraceCount() int { return tl.t.TraceCount() }

// TracesDropped reports how many sampled traces the ring has dropped
// (overwritten oldest-first) since creation.
func (tl *Telemetry) TracesDropped() uint64 { return tl.t.TracesDropped() }

// SlowJSON renders the flight recorder's retained slow/anomalous traces
// as JSON, stitched end-to-end by wire trace id, oldest first.
func (tl *Telemetry) SlowJSON() []byte { return tl.t.SlowJSON() }

// SlowTraces returns the flight recorder's retained traces (oldest
// first) and how many qualifying traces it has dropped to make room.
func (tl *Telemetry) SlowTraces() ([]*telemetry.WalkTrace, uint64) { return tl.t.SlowTraces() }

// SetSlowThreshold sets the flight recorder's slow threshold for op
// ("" = the default applied to ops without an override): completed
// traces at least this slow are retained for dcsh slow / the /slow
// endpoint.
func (tl *Telemetry) SetSlowThreshold(op string, d time.Duration) { tl.t.SetSlowThreshold(op, d) }

// SetTraceSample changes the 1-in-N walk trace sampling rate (0 disables).
func (tl *Telemetry) SetTraceSample(n int) { tl.t.SetTraceSample(n) }

// ResetHistograms zeroes every latency histogram, starting a fresh
// measurement window. Observations racing the reset may be partially
// lost; the trace ring and registered counters are unaffected.
func (tl *Telemetry) ResetHistograms() { tl.t.ResetHistograms() }

// Raw exposes the underlying telemetry instance to in-repo subsystems
// (internal/ninep records its per-op server histograms through it).
// Nil-safe: a nil *Telemetry returns a nil raw instance, whose Record and
// Emit are themselves nil-safe no-ops.
func (tl *Telemetry) Raw() *telemetry.Telemetry {
	if tl == nil {
		return nil
	}
	return tl.t
}

// HistogramQuantiles reports the estimated p50/p95/p99 of the named
// latency histogram. Names: "walk", "fastpath", "slowpath", "fs_lookup",
// "pcc_probe", "pcc_resize", "evict", "miss_wait", the mutation-side
// cost centers "rename_invalidate", "chmod_seq_bump", "unlink_invalidate",
// "dlht_remove", and the 9P server's per-op centers "ninep_attach",
// "ninep_walk", "ninep_open", "ninep_read", "ninep_stat", "ninep_clunk".
// "walk", "fastpath", "slowpath" and "pcc_probe" hold one walk in eight
// and every traced walk (two clock reads per walk is what leaving them on
// would cost); the CacheStats counters count walks. ok is false for an
// unknown name or an empty histogram.
func (tl *Telemetry) HistogramQuantiles(name string) (p50, p95, p99 time.Duration, ok bool) {
	id, ok := telemetry.HistIDByName(name)
	if !ok {
		return 0, 0, 0, false
	}
	s := tl.t.SnapshotHist(id)
	if s.Count == 0 {
		return 0, 0, 0, false
	}
	return s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), true
}
