package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dircache/internal/ringlog"
	"dircache/internal/stripe"
)

// TestBucketBoundaries checks the bucket function against its boundary
// inverse: every value lands in a bucket whose [lower, upper) range
// contains it, boundaries are strictly monotonic, and the mapping is
// exhaustive from 0 through the overflow bucket.
func TestBucketBoundaries(t *testing.T) {
	if bucketOf(0) != 0 {
		t.Fatalf("bucketOf(0) = %d", bucketOf(0))
	}
	// Strictly monotonic boundaries.
	for b := 1; b < NumBuckets; b++ {
		if bucketLower(b) <= bucketLower(b-1) {
			t.Fatalf("bucketLower not monotonic at %d: %d <= %d", b, bucketLower(b), bucketLower(b-1))
		}
		if BucketUpper(b-1) != bucketLower(b) {
			t.Fatalf("gap between bucket %d upper (%d) and bucket %d lower (%d)",
				b-1, BucketUpper(b-1), b, bucketLower(b))
		}
	}
	// Membership: sweep exact small values plus probes around every
	// boundary at larger magnitudes.
	probes := []uint64{}
	for v := uint64(0); v < 4096; v++ {
		probes = append(probes, v)
	}
	for b := 0; b < NumBuckets; b++ {
		lo := bucketLower(b)
		probes = append(probes, lo, lo+1)
		if lo > 0 {
			probes = append(probes, lo-1)
		}
	}
	probes = append(probes, math.MaxUint64, math.MaxUint64/2, 1<<62)
	for _, v := range probes {
		b := bucketOf(v)
		if b < 0 || b >= NumBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if v < bucketLower(b) {
			t.Fatalf("value %d below bucket %d lower bound %d", v, b, bucketLower(b))
		}
		if b < NumBuckets-1 && v >= BucketUpper(b) {
			t.Fatalf("value %d at/above bucket %d upper bound %d", v, b, BucketUpper(b))
		}
	}
	// Sub-power-of-two resolution: 4 buckets per octave above 4 ns.
	if bucketOf(1000) == bucketOf(1999) {
		t.Fatalf("1000ns and 1999ns share bucket %d; resolution too coarse", bucketOf(1000))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations at ~1us, 10 at ~1ms.
	for i := 0; i < 100; i++ {
		h.Record(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	p50 := s.Quantile(0.5)
	if p50 < 800*time.Nanosecond || p50 > 1300*time.Nanosecond {
		t.Fatalf("p50 = %v, want ~1us", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 800*time.Microsecond || p99 > 1300*time.Microsecond {
		t.Fatalf("p99 = %v, want ~1ms", p99)
	}
	if m := s.Mean(); m < 80*time.Microsecond || m > 120*time.Microsecond {
		t.Fatalf("mean = %v, want ~91us", m)
	}
	// Negative durations clamp rather than panic.
	h.Record(-time.Second)
	if got := h.Snapshot().Count; got != 111 {
		t.Fatalf("count after negative record = %d", got)
	}
}

// TestHistogramCellsOnFirstRecord: a histogram allocates a stripe's cell
// on that stripe's first record and its exemplar array on the first traced
// one, so a fresh Telemetry holds no cell; goroutines racing their first
// records lose no observation; Reset zeroes the cells and keeps them.
func TestHistogramCellsOnFirstRecord(t *testing.T) {
	tel := New(Options{})
	f := tel.Footprint()
	if f.HistCells != 0 || f.JournalSlots != 0 || f.TraceSlots != 16 || f.Bytes > 16<<10 {
		t.Fatalf("fresh telemetry: %+v", f)
	}
	// The stripe hashes a stack address, so records from one frame share a
	// cell unless the stack moved between them (a growth or a GC shrink),
	// and one from another depth may take another.
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond} {
		tel.Record(HistFSLookup, d)
	}
	one := tel.Footprint()
	if cell := int64(unsafe.Sizeof(histCell{})); one.HistCells < 1 || one.HistCells > 2 || one.Bytes != f.Bytes+int64(one.HistCells)*cell {
		t.Fatalf("two records from one frame: %d cells in %d bytes, want 1 or 2 cells of %d", one.HistCells, one.Bytes-f.Bytes, cell)
	}
	tel.RecordEx(HistFSLookup, time.Millisecond, 9)
	ex := tel.Footprint()
	if ex.HistCells > one.HistCells+1 || ex.Bytes < one.Bytes+int64(unsafe.Sizeof(exemplarArray{})) {
		t.Fatalf("a traced record: %d cells after %d, %d more bytes, want at most one more cell and an exemplar array", ex.HistCells, one.HistCells, ex.Bytes-one.Bytes)
	}
	if s := tel.SnapshotHist(HistFSLookup); s.Count != 3 || s.QuantileExemplar(1) != 9 {
		t.Fatalf("snapshot: count %d, exemplar %d", s.Count, s.QuantileExemplar(1))
	}

	const goroutines, each = 4 * stripe.Stripes, 100
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			for i := 0; i < each; i++ {
				tel.Record(HistEvict, time.Duration(i))
			}
		}()
	}
	start.Done()
	wg.Wait()
	if s := tel.SnapshotHist(HistEvict); s.Count != goroutines*each {
		t.Fatalf("racing first records: count %d, want %d", s.Count, goroutines*each)
	}
	cells := tel.Footprint().HistCells
	if cells < 2 || cells > ex.HistCells+stripe.Stripes {
		t.Fatalf("%d cells after one histogram's records and %d goroutines' of another", cells, goroutines)
	}
	tel.ResetHistograms()
	exemplars := tel.SnapshotHist(HistFSLookup).Exemplars
	if f := tel.Footprint(); f.HistCells != cells || tel.SnapshotHist(HistEvict).Count != 0 || exemplars != [NumBuckets]uint64{} {
		t.Fatalf("after Reset: %+v, evict count %d", f, tel.SnapshotHist(HistEvict).Count)
	}
}

// TestTraceRingWraparound fills the ring past capacity and checks
// drop-oldest ordering.
func TestTraceRingWraparound(t *testing.T) {
	r := ringlog.New[*WalkTrace](4, nil)
	for i := 1; i <= 10; i++ {
		r.Append(&WalkTrace{ID: uint64(i)})
	}
	traces, dropped := r.Retained()
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if n, _ := r.Counts(); len(traces) != 4 || n != 4 {
		t.Fatalf("retained %d/%d, want 4", len(traces), n)
	}
	for i, tr := range traces {
		if want := uint64(7 + i); tr.ID != want {
			t.Fatalf("trace[%d].ID = %d, want %d (oldest-first order)", i, tr.ID, want)
		}
	}
	// Partial fill keeps insertion order without phantom entries.
	r2 := ringlog.New[*WalkTrace](4, nil)
	r2.Append(&WalkTrace{ID: 1})
	r2.Append(&WalkTrace{ID: 2})
	traces, dropped = r2.Retained()
	if dropped != 0 || len(traces) != 2 || traces[0].ID != 1 || traces[1].ID != 2 {
		t.Fatalf("partial dump wrong: dropped=%d traces=%v", dropped, traces)
	}
}

func TestSampleWalk(t *testing.T) {
	tel := New(Options{TraceSample: 4})
	n := 0
	for i := 0; i < 100; i++ {
		if tel.Sampled() {
			n++
			tel.FinishWalk(tel.StartWalk("/x"), false, nil, time.Microsecond)
		}
	}
	if n != 25 {
		t.Fatalf("sampled %d of 100 walks at 1-in-4", n)
	}
	tel.SetTraceSample(0)
	if tel.Sampled() {
		t.Fatal("sampling disabled but a walk was sampled")
	}
	// A nil receiver — a kernel with nothing attached — is safe for the
	// hot-path helpers and records nothing.
	var nilTel *Telemetry
	nilTel.Record(HistWalk, time.Second)
	nilTel.RecordEx(HistWalk, time.Second, 1)
	nilTel.Emit(JDLHTInsert, 1, 1, NoteNone)
	if nilTel.StartSpan("server", "Tstat", "/x", 1) != nil || nilTel.NextTraceID() != 0 {
		t.Fatal("nil telemetry opens a span")
	}
	var nilTr *WalkTrace
	nilTr.Event(EvComponent, "x")
	nilTr.EventDur(EvFSLookup, "x", time.Second)
}

// TestConcurrentRecordExport hammers Record/Sampled/StartWalk from many
// goroutines while exporters snapshot, render, and reset — the -race
// gate for the subsystem.
func TestConcurrentRecordExport(t *testing.T) {
	tel := New(Options{TraceSample: 2})
	tel.ring = ringlog.New[*WalkTrace](8, nil)
	tel.RegisterStats("test", func() map[string]int64 { return map[string]int64{"x": 1} })
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				tel.Record(HistID(i%int(NumHistograms)), time.Duration(i)*time.Nanosecond)
				if tel.Sampled() {
					tr := tel.StartWalk("/a/b")
					tr.Event(EvComponent, "a")
					tel.FinishWalk(tr, i%2 == 0, nil, time.Duration(i))
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var exporter sync.WaitGroup
	exporter.Add(1)
	go func() {
		defer exporter.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tel.WritePrometheus(io.Discard)
			tel.MetricsJSON()
			tel.TracesJSON()
			tel.ResetHistograms()
		}
	}()
	writers.Wait()
	close(stop)
	exporter.Wait()
}

// TestPrometheusOutput checks the exposition format is well-formed:
// cumulative buckets, monotonic le values, sum/count present.
func TestPrometheusOutput(t *testing.T) {
	tel := New(Options{TraceSample: 1})
	for i := 0; i < 50; i++ {
		tel.Record(HistWalk, time.Duration(i)*time.Microsecond)
	}
	tel.RegisterStats("sys", func() map[string]int64 {
		return map[string]int64{"lookups": 50, "fast_hits": 40}
	})
	var b strings.Builder
	tel.WritePrometheus(&b)
	out := b.String()

	var lastLe float64
	var lastCum int64 = -1
	buckets := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "dircache_walk_latency_seconds_bucket{le=") {
			continue
		}
		buckets++
		var leStr string
		var cum int64
		if _, err := fmt.Sscanf(line, "dircache_walk_latency_seconds_bucket{le=%q} %d", &leStr, &cum); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		le := math.Inf(1)
		if leStr != "+Inf" {
			var err error
			le, err = strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", leStr, err)
			}
		}
		if le <= lastLe && buckets > 1 {
			t.Fatalf("le not increasing at %q", line)
		}
		if cum < lastCum {
			t.Fatalf("cumulative count decreased at %q", line)
		}
		lastLe, lastCum = le, cum
	}
	// The overflow bucket is folded into +Inf: NumBuckets-1 finite
	// boundaries plus the +Inf line.
	if buckets != NumBuckets {
		t.Fatalf("emitted %d bucket lines, want %d", buckets, NumBuckets)
	}
	if lastCum != 50 {
		t.Fatalf("+Inf cumulative = %d, want 50", lastCum)
	}
	for _, want := range []string{
		"dircache_walk_latency_seconds_count 50",
		"dircache_stat{source=\"sys\",name=\"fast_hits\"} 40",
		"dircache_stat{source=\"sys\",name=\"lookups\"} 50",
		"# TYPE dircache_fastpath_latency_seconds histogram",
		"dircache_traces_retained 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q\n%s", want, out)
		}
	}
}

// TestServeEndpoints starts the live exporter and fetches each route.
func TestServeEndpoints(t *testing.T) {
	tel := New(Options{TraceSample: 1})
	tr := tel.StartWalk("/a/b/c")
	tr.Event(EvComponent, "a")
	tr.Event(EvComponent, "b")
	tr.EventDur(EvFSLookup, "c", 123*time.Nanosecond)
	tel.FinishWalk(tr, false, nil, 5*time.Microsecond)
	tel.Record(HistWalk, 5*time.Microsecond)

	srv, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "dircache_walk_latency_seconds_count 1") {
		t.Fatalf("/metrics missing walk count:\n%s", out)
	}
	var td traceDoc
	if err := json.Unmarshal([]byte(get("/traces")), &td); err != nil {
		t.Fatalf("traces not JSON: %v", err)
	}
	if len(td.Traces) != 1 || td.Traces[0].Path != "/a/b/c" || len(td.Traces[0].Events) != 3 {
		t.Fatalf("trace dump wrong: %+v", td)
	}
	if td.Traces[0].Outcome != "ok" || td.Traces[0].DurNS != 5000 {
		t.Fatalf("trace fields wrong: %+v", td.Traces[0])
	}
	var md metricsDoc
	if err := json.Unmarshal([]byte(get("/metrics.json")), &md); err != nil {
		t.Fatalf("metrics.json not JSON: %v", err)
	}
	if len(md.Histograms) != int(NumHistograms) || md.Traces != 1 {
		t.Fatalf("metrics.json shape wrong: %d hists, %d traces", len(md.Histograms), md.Traces)
	}
}

func TestHistIDByName(t *testing.T) {
	for id := HistID(0); id < NumHistograms; id++ {
		got, ok := HistIDByName(id.Name())
		if !ok || got != id {
			t.Fatalf("HistIDByName(%q) = %v, %v", id.Name(), got, ok)
		}
	}
	if _, ok := HistIDByName("nope"); ok {
		t.Fatal("HistIDByName accepted unknown name")
	}
}

// TestFlatten pins the naming rule every counter source shares: the json
// tag, else the field name; nested structs joined with "_"; `json:"-"`,
// unexported and non-integer fields left out.
func TestFlatten(t *testing.T) {
	type inner struct {
		Slots uint64 `json:"slots"`
		Bytes int32
	}
	v := struct {
		Lookups int64
		Live    int   `json:"live,omitempty"`
		Table   inner `json:"table"`
		Inner   inner
		Retired inner   `json:"-"`
		Ratio   float64 `json:"ratio"`
		Name    string
		hidden  int64
	}{Lookups: 1, Live: 2, Table: inner{3, 4}, Inner: inner{5, 6}, Retired: inner{7, 8}, hidden: 9}
	want := map[string]int64{
		"Lookups": 1, "live": 2,
		"table_slots": 3, "table_Bytes": 4,
		"Inner_slots": 5, "Inner_Bytes": 6,
	}
	if got := Flatten(v); !reflect.DeepEqual(got, want) {
		t.Fatalf("Flatten = %v, want %v", got, want)
	}
}
