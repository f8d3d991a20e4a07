package dircache_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"dircache"
)

// walkSome drives enough lookups through sys to populate histograms and
// (at sample rate 1) the trace ring.
func walkSome(t *testing.T, sys *dircache.System) {
	t.Helper()
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll("/srv/app/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/srv/app/data/cfg.json", []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := p.Stat("/srv/app/data/cfg.json"); err != nil {
			t.Fatal(err)
		}
		p.Stat("/srv/app/data/missing") // populate + hit negative caching
	}
}

func TestTelemetryEndToEnd(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	tl := sys.EnableTelemetry(dircache.TelemetryOptions{TraceSample: 1})
	if sys.Telemetry() != tl {
		t.Fatal("Telemetry() is not the instance EnableTelemetry attached")
	}
	walkSome(t, sys)

	p50, p95, p99, ok := tl.HistogramQuantiles("walk")
	if !ok {
		t.Fatal("walk histogram empty after workload")
	}
	if p50 <= 0 || p95 < p50 || p99 < p95 {
		t.Fatalf("implausible quantiles p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if _, _, _, ok := tl.HistogramQuantiles("fastpath"); !ok {
		t.Fatal("fastpath histogram empty: repeated Stats should hit the fastpath")
	}
	if _, _, _, ok := tl.HistogramQuantiles("no_such_hist"); ok {
		t.Fatal("unknown histogram name reported ok")
	}
	if tl.TraceCount() == 0 {
		t.Fatal("no traces retained at sample rate 1")
	}

	// The exporter endpoint must serve Prometheus-parseable histograms
	// and a JSON trace dump with at least one complete sampled walk.
	srv, err := tl.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	checkPrometheusParseable(t, string(body))
	for _, want := range []string{
		"dircache_walk_latency_seconds_bucket",
		"dircache_walk_latency_seconds_count",
		`dircache_stat{source="system",name="Lookups"}`,
		// What the cache holds, from the running process (DESIGN §6).
		`dircache_stat{source="mem",name="dentries_bytes"}`,
		`dircache_stat{source="mem",name="table_buckets"}`,
		`dircache_stat{source="mem",name="table_entries"}`,
		`dircache_stat{source="mem",name="table_resizes"}`,
		`dircache_stat{source="mem",name="table_bytes"}`,
		`dircache_stat{source="mem",name="telemetry_bytes"}`,
		`dircache_stat{source="mem",name="coherence_bytes"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics output missing %q", want)
		}
	}

	resp, err = http.Get("http://" + srv.Addr() + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dropped uint64 `json:"dropped"`
		Traces  []struct {
			Path    string `json:"path"`
			Outcome string `json:"outcome"`
			DurNS   int64  `json:"dur_ns"`
			Events  []struct {
				Kind string `json:"kind"`
			} `json:"events"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace dump not JSON: %v", err)
	}
	resp.Body.Close()
	if len(doc.Traces) == 0 {
		t.Fatal("trace dump empty")
	}
	complete := false
	for _, tr := range doc.Traces {
		if tr.Path == "/srv/app/data/cfg.json" && tr.Outcome == "ok" && tr.DurNS > 0 && len(tr.Events) > 0 {
			complete = true
		}
	}
	if !complete {
		t.Fatalf("no complete sampled walk for the stat'd path among %d traces", len(doc.Traces))
	}

	// Detach: the handle keeps working, the system stops feeding it.
	sys.DisableTelemetry()
	if sys.Telemetry() != nil {
		t.Fatal("Telemetry() non-nil after DisableTelemetry")
	}
	before := tl.TraceCount()
	walkSome(t, sys)
	if got := tl.TraceCount(); got != before {
		t.Fatalf("detached system still traced: %d -> %d", before, got)
	}
}

// checkPrometheusParseable validates the text exposition format closely
// enough to catch a malformed exporter: every non-comment line must be
// `name{labels} value` or `name value`, with histogram bucket counts
// cumulative and non-decreasing.
func checkPrometheusParseable(t *testing.T, body string) {
	t.Helper()
	var prevName string
	var prevCum uint64
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = series[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			if name != prevName {
				prevName, prevCum = name, 0
			}
			cum := uint64(f)
			if cum < prevCum {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			prevCum = cum
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
}

func TestStatsDelta(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll("/x/y", 0o755); err != nil {
		t.Fatal(err)
	}
	before := sys.Stats()
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := p.Stat("/x/y"); err != nil {
			t.Fatal(err)
		}
	}
	d := sys.Stats().Delta(before)
	if d.Lookups != n {
		t.Fatalf("delta Lookups = %d, want %d", d.Lookups, n)
	}
	if d.FSLookups != 0 {
		t.Fatalf("delta FSLookups = %d on a warm cache", d.FSLookups)
	}
	if d.Dentries != sys.Stats().Dentries {
		t.Fatalf("Dentries gauge should pass through current value, got %d", d.Dentries)
	}
}

// TestStatsDeltaCoversEveryField guards the Delta helper against new
// CacheStats fields being added without joining the subtraction: every
// int64 counter must come out as s-prev (Dentries excepted by contract).
func TestStatsDeltaCoversEveryField(t *testing.T) {
	var prev, cur dircache.CacheStats
	pv := reflect.ValueOf(&prev).Elem()
	cv := reflect.ValueOf(&cur).Elem()
	for i := 0; i < pv.NumField(); i++ {
		pv.Field(i).SetInt(int64(i + 1))
		cv.Field(i).SetInt(int64(10 * (i + 1)))
	}
	d := cur.Delta(prev)
	dv := reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		want := int64(10*(i+1) - (i + 1))
		if name == "Dentries" {
			want = int64(10 * (i + 1)) // gauge passes through
		}
		if got := dv.Field(i).Int(); got != want {
			t.Fatalf("Delta field %s = %d, want %d", name, got, want)
		}
	}
}
