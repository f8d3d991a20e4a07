package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Handler returns the metrics endpoint:
//
//	/metrics       Prometheus text format (histograms + registered counters)
//	/traces        JSON dump of the sampled walk trace ring
//	/events        JSON dump of the coherence event journal
//	/metrics.json  everything as one JSON document
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	t.mountHandlers(mux)
	return mux
}

// DebugHandler returns Handler plus the net/http/pprof endpoints under
// /debug/pprof/, and registers the Go runtime metrics (GC pauses, heap,
// goroutines) as a counter source so they ride /metrics like everything
// else. Profiling endpoints expose internals; serve them only where you
// would serve pprof.
func (t *Telemetry) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	t.mountHandlers(mux)
	t.RegisterRuntimeMetrics()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (t *Telemetry) mountHandlers(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.WritePrometheus(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(t.TracesJSON())
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(t.SlowJSON())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(t.EventsJSON())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(t.MetricsJSON())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, "dircache telemetry: /metrics /traces /slow /events /metrics.json\n")
	})
}

// RegisterRuntimeMetrics registers the Go runtime as a counter source
// named "runtime": goroutine count, heap bytes, GC cycle count, and GC
// pause totals/p99, read through runtime/metrics on each scrape.
func (t *Telemetry) RegisterRuntimeMetrics() {
	names := []string{
		"/sched/goroutines:goroutines",
		"/memory/classes/heap/objects:bytes",
		"/memory/classes/total:bytes",
		"/gc/cycles/total:gc-cycles",
		"/sched/pauses/total/gc:seconds",
	}
	t.RegisterStats("runtime", func() map[string]int64 {
		samples := make([]metrics.Sample, len(names))
		for i, n := range names {
			samples[i].Name = n
		}
		metrics.Read(samples)
		out := make(map[string]int64, len(samples)+1)
		for _, s := range samples {
			key := runtimeMetricKey(s.Name)
			switch s.Value.Kind() {
			case metrics.KindUint64:
				out[key] = int64(s.Value.Uint64())
			case metrics.KindFloat64:
				out[key+"_ns"] = int64(s.Value.Float64() * 1e9)
			case metrics.KindFloat64Histogram:
				h := s.Value.Float64Histogram()
				var count uint64
				for _, c := range h.Counts {
					count += c
				}
				out[key+"_count"] = int64(count)
				out[key+"_p99_ns"] = int64(float64HistQuantile(h, 0.99) * 1e9)
			}
		}
		return out
	})
}

// runtimeMetricKey flattens "/sched/pauses/total/gc:seconds" to
// "sched_pauses_total_gc" for the flat counter namespace.
func runtimeMetricKey(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[:i]
	}
	return strings.ReplaceAll(strings.TrimPrefix(name, "/"), "/", "_")
}

// float64HistQuantile returns the upper bound of the bucket holding the
// q-quantile of a runtime/metrics histogram (0 if empty).
func float64HistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			// Buckets[i+1] is this bucket's upper bound; the last
			// bucket's bound may be +Inf, in which case report its
			// (finite) lower bound.
			up := h.Buckets[i+1]
			if math.IsInf(up, 1) {
				up = h.Buckets[i]
			}
			return up
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// WritePrometheus renders every histogram and registered counter source
// in the Prometheus text exposition format. Histogram buckets are emitted
// in seconds (the Prometheus convention for latency), cumulative, with
// the full fixed bucket set so series stay consistent across scrapes.
func (t *Telemetry) WritePrometheus(w io.Writer) {
	for id, s := range t.Snapshot() {
		name := "dircache_" + s.Name + "_latency_seconds"
		fmt.Fprintf(w, "# HELP %s %s\n", name, histTable[id].help)
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum uint64
		for b := 0; b < NumBuckets-1; b++ {
			cum += s.Counts[b]
			le := strconv.FormatFloat(float64(BucketUpper(b))/1e9, 'g', -1, 64)
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
		cum += s.Counts[NumBuckets-1]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(float64(s.Sum)/1e9, 'g', -1, 64))
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	}

	stats := t.statsSnapshot()
	if len(stats) > 0 {
		fmt.Fprintf(w, "# HELP dircache_stat cumulative directory cache counters (CacheStats)\n")
		fmt.Fprintf(w, "# TYPE dircache_stat gauge\n")
		sources := make([]string, 0, len(stats))
		for src := range stats {
			sources = append(sources, src)
		}
		sort.Strings(sources)
		for _, src := range sources {
			counters := stats[src]
			names := make([]string, 0, len(counters))
			for n := range counters {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(w, "dircache_stat{source=%q,name=%q} %d\n", src, n, counters[n])
			}
		}
	}

	fmt.Fprintf(w, "# HELP dircache_latency_exemplar most recent trace ID in the bucket holding the named quantile\n")
	fmt.Fprintf(w, "# TYPE dircache_latency_exemplar gauge\n")
	for _, s := range t.Snapshot() {
		for _, q := range []struct {
			label string
			q     float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			if ex := s.QuantileExemplar(q.q); ex != 0 {
				fmt.Fprintf(w, "dircache_latency_exemplar{hist=%q,quantile=%q} %d\n", s.Name, q.label, ex)
			}
		}
	}

	fmt.Fprintf(w, "# HELP dircache_traces_retained sampled walk traces currently in the ring\n")
	fmt.Fprintf(w, "# TYPE dircache_traces_retained gauge\n")
	fmt.Fprintf(w, "dircache_traces_retained %d\n", t.TraceCount())
	fmt.Fprintf(w, "# HELP dircache_traces_dropped_total sampled traces overwritten by the drop-oldest ring\n")
	fmt.Fprintf(w, "# TYPE dircache_traces_dropped_total counter\n")
	fmt.Fprintf(w, "dircache_traces_dropped_total %d\n", t.TracesDropped())
	fmt.Fprintf(w, "# HELP dircache_slow_traces_retained flight-recorded slow/anomalous traces currently retained\n")
	fmt.Fprintf(w, "# TYPE dircache_slow_traces_retained gauge\n")
	fmt.Fprintf(w, "dircache_slow_traces_retained %d\n", t.SlowCount())
	fmt.Fprintf(w, "# HELP dircache_slow_traces_dropped_total flight-recorded traces overwritten by the drop-oldest ring\n")
	fmt.Fprintf(w, "# TYPE dircache_slow_traces_dropped_total counter\n")
	fmt.Fprintf(w, "dircache_slow_traces_dropped_total %d\n", t.SlowDropped())

	perKind := t.EventCounts()
	fmt.Fprintf(w, "# HELP dircache_journal_events_total coherence events emitted, by kind\n")
	fmt.Fprintf(w, "# TYPE dircache_journal_events_total counter\n")
	for k, n := range perKind {
		fmt.Fprintf(w, "dircache_journal_events_total{kind=%q} %d\n", JournalKind(k).String(), n)
	}
	fmt.Fprintf(w, "# HELP dircache_journal_dropped_total coherence events dropped from the ring\n")
	fmt.Fprintf(w, "# TYPE dircache_journal_dropped_total counter\n")
	fmt.Fprintf(w, "dircache_journal_dropped_total %d\n", t.EventsDropped())
}

// eventsDoc is the JSON shape of a journal dump.
type eventsDoc struct {
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// EventsJSON renders the coherence event journal as JSON (ID order).
func (t *Telemetry) EventsJSON() []byte {
	events, dropped := t.Events()
	if events == nil {
		events = []Event{}
	}
	buf, err := json.MarshalIndent(eventsDoc{Dropped: dropped, Events: events}, "", "  ")
	if err != nil {
		return []byte(`{"error":"marshal failed"}`)
	}
	return append(buf, '\n')
}

// traceDoc is the JSON shape of a trace dump.
type traceDoc struct {
	Dropped uint64       `json:"dropped"`
	Traces  []*WalkTrace `json:"traces"`
}

// TracesJSON renders the trace ring as JSON (oldest trace first).
func (t *Telemetry) TracesJSON() []byte {
	traces, dropped := t.Traces()
	if traces == nil {
		traces = []*WalkTrace{}
	}
	buf, err := json.MarshalIndent(traceDoc{Dropped: dropped, Traces: traces}, "", "  ")
	if err != nil {
		return []byte(`{"error":"marshal failed"}`)
	}
	return append(buf, '\n')
}

// StitchedTrace is one end-to-end trace reassembled from its spans: the
// client RPC span and the server dispatch span (with the kernel walk's
// stage events folded in) that share a wire trace ID, or a single
// in-process walk trace (WireID 0).
type StitchedTrace struct {
	WireID uint64       `json:"wire_id,omitempty"`
	Spans  []*WalkTrace `json:"spans"`
}

// StitchTraces groups traces by wire trace ID, preserving oldest-first
// order of first appearance. Traces without a wire ID stay singletons.
func StitchTraces(traces []*WalkTrace) []StitchedTrace {
	var out []StitchedTrace
	byWire := map[uint64]int{}
	for _, tr := range traces {
		if tr.RemoteID == 0 {
			out = append(out, StitchedTrace{Spans: []*WalkTrace{tr}})
			continue
		}
		if i, ok := byWire[tr.RemoteID]; ok {
			out[i].Spans = append(out[i].Spans, tr)
			continue
		}
		byWire[tr.RemoteID] = len(out)
		out = append(out, StitchedTrace{WireID: tr.RemoteID, Spans: []*WalkTrace{tr}})
	}
	return out
}

// slowDoc is the JSON shape of the flight recorder dump: qualifying
// traces stitched into end-to-end groups by wire trace ID.
type slowDoc struct {
	Dropped uint64          `json:"dropped"`
	Traces  []StitchedTrace `json:"traces"`
}

// SlowJSON renders the flight recorder as JSON: slow and anomalous
// traces, oldest first, spans stitched across the wire by trace ID.
func (t *Telemetry) SlowJSON() []byte {
	traces, dropped := t.SlowTraces()
	groups := StitchTraces(traces)
	if groups == nil {
		groups = []StitchedTrace{}
	}
	buf, err := json.MarshalIndent(slowDoc{Dropped: dropped, Traces: groups}, "", "  ")
	if err != nil {
		return []byte(`{"error":"marshal failed"}`)
	}
	return append(buf, '\n')
}

// histJSON is the JSON shape of one histogram.
type histJSON struct {
	Name    string  `json:"name"`
	Count   uint64  `json:"count"`
	SumNS   uint64  `json:"sum_ns"`
	MeanNS  int64   `json:"mean_ns"`
	P50NS   int64   `json:"p50_ns"`
	P95NS   int64   `json:"p95_ns"`
	P99NS   int64   `json:"p99_ns"`
	P99Ex   uint64  `json:"p99_exemplar,omitempty"` // trace ID in the p99 bucket
	Buckets []buckJ `json:"buckets,omitempty"`      // non-empty buckets only
}

type buckJ struct {
	LeNS    uint64 `json:"le_ns"`
	Count   uint64 `json:"count"`
	TraceID uint64 `json:"trace_id,omitempty"` // most recent trace in this bucket
}

type journalJSON struct {
	Emitted map[string]uint64 `json:"emitted"` // per kind, incl. dropped
	Dropped uint64            `json:"dropped"`
}

type metricsDoc struct {
	Histograms []histJSON                  `json:"histograms"`
	Stats      map[string]map[string]int64 `json:"stats,omitempty"`
	Traces     int                         `json:"traces_retained"`
	TracesDrop uint64                      `json:"traces_dropped"`
	Slow       int                         `json:"slow_traces_retained"`
	SlowDrop   uint64                      `json:"slow_traces_dropped"`
	Journal    journalJSON                 `json:"journal"`
}

// MetricsJSON renders histograms (with precomputed quantiles and
// exemplars) and registered counters as one JSON document.
func (t *Telemetry) MetricsJSON() []byte {
	doc := metricsDoc{
		Stats: t.statsSnapshot(), Traces: t.TraceCount(), TracesDrop: t.TracesDropped(),
		Slow: t.SlowCount(), SlowDrop: t.SlowDropped(),
	}
	perKind := t.EventCounts()
	doc.Journal = journalJSON{Emitted: make(map[string]uint64, len(perKind)), Dropped: t.EventsDropped()}
	for k, n := range perKind {
		doc.Journal.Emitted[JournalKind(k).String()] = n
	}
	for _, s := range t.Snapshot() {
		h := histJSON{
			Name:   s.Name,
			Count:  s.Count,
			SumNS:  s.Sum,
			MeanNS: s.Mean().Nanoseconds(),
			P50NS:  s.Quantile(0.50).Nanoseconds(),
			P95NS:  s.Quantile(0.95).Nanoseconds(),
			P99NS:  s.Quantile(0.99).Nanoseconds(),
			P99Ex:  s.QuantileExemplar(0.99),
		}
		for b := 0; b < NumBuckets; b++ {
			if s.Counts[b] != 0 {
				h.Buckets = append(h.Buckets, buckJ{LeNS: BucketUpper(b), Count: s.Counts[b], TraceID: s.Exemplars[b]})
			}
		}
		doc.Histograms = append(doc.Histograms, h)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return []byte(`{"error":"marshal failed"}`)
	}
	return append(buf, '\n')
}

// Server is a live metrics endpoint started by Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts an HTTP server for t's Handler on addr (e.g.
// "localhost:9150" or ":0" for an ephemeral port). It returns once the
// listener is bound; serving continues in a background goroutine.
func (t *Telemetry) Serve(addr string) (*Server, error) {
	return serveHandler(addr, t.Handler())
}

// ServeDebug is Serve with DebugHandler: the same endpoints plus
// /debug/pprof/ and runtime metrics (dcbench/dcsh -pprof).
func (t *Telemetry) ServeDebug(addr string) (*Server, error) {
	return serveHandler(addr, t.DebugHandler())
}

func serveHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}
