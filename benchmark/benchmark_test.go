package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestStreamFollowsSeed(t *testing.T) {
	for _, wl := range workloads {
		a := wl.gen(rand.New(rand.NewSource(7))).hash()
		b := wl.gen(rand.New(rand.NewSource(7))).hash()
		c := wl.gen(rand.New(rand.NewSource(8))).hash()
		if a != b {
			t.Errorf("%s: seed 7 gave stream %016x, then %016x", wl.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %016x", wl.name, a)
		}
	}
}

func TestStreamShape(t *testing.T) {
	for _, wl := range workloads {
		s := wl.gen(rand.New(rand.NewSource(1)))
		if len(s.ops) != ringSize {
			t.Errorf("%s: ring holds %d ops, want %d", wl.name, len(s.ops), ringSize)
		}
		for i, o := range s.ops {
			limit := len(s.targets)
			if o.class == cTmpCycle || o.class == cToggle {
				limit = len(s.pool)
			}
			if int(o.idx) >= limit {
				t.Fatalf("%s: op %d of class %s points at %d of %d", wl.name, i, classNames[o.class], o.idx, limit)
			}
		}
	}
	if m := genModel(linuxTree, rand.New(rand.NewSource(1))); len(m.files) != 2184 || len(m.dirs) != 157 {
		t.Errorf("linux tree has %d files in %d directories, want 2184 in 157", len(m.files), len(m.dirs))
	}
	if m := genModel(coldTree, rand.New(rand.NewSource(1))); len(m.files) != 9600 || len(m.dirs) != 481 {
		t.Errorf("cold tree has %d files in %d directories, want 9600 in 481", len(m.files), len(m.dirs))
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{10_000, 0.999}, {99_999, 0.999}, {100_000, 0.9999}, {10_000_000, 0.9999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(999 - i)
	}
	if got := quantile(v, 0.5); got != 500 {
		t.Errorf("median of 0..999 = %v, want 500", got)
	}
	if got := quantile(v, 0.99); got != 990 {
		t.Errorf("p99 of 0..999 = %v, want 990", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if hi, lo := goodQuartile(v, true), goodQuartile(v, false); hi != 750 || lo != 250 {
		t.Errorf("good quartiles of 0..999 = %v (higher is better) and %v (lower is), want 750 and 250", hi, lo)
	}
	if got := spread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

// TestHostRef: the chase is one cycle through every slot whatever the
// seed of the run, a reading is positive, and the factor is its share of
// nominal.
func TestHostRef(t *testing.T) {
	h := newHostRef(2)
	for c := range h.chases {
		seen := make([]bool, refLoads)
		at := uint32(0)
		for i := 0; i < refLoads; i++ {
			if seen[at] {
				t.Fatalf("chase %d returns to slot %d after %d loads, want %d", c, at, i, refLoads)
			}
			seen[at] = true
			at = h.chases[c].next[at]
		}
		if at != 0 {
			t.Errorf("chase %d ends at slot %d, want 0", c, at)
		}
	}
	if ns := h.read(); ns <= 0 {
		t.Errorf("reading = %v ns per load, want above 0", ns)
	}
	if f := h.factor(2 * h.nominal); h.nominal <= 0 || f != 0.5 {
		t.Errorf("nominal %v, factor of a host at twice nominal = %v, want 0.5", h.nominal, f)
	}
}

func TestWindowsFor(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int
	}{{0.1, setUps}, {1, setUps}, {12, 60}, {20, 100}, {21.5, 105}} {
		if got := windowsFor(c.seconds); got != c.want {
			t.Errorf("windowsFor(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: covered once
		{ID: 4, Parent: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 2, Name: "c", Start: 12, End: 18},  // a grandchild covers nothing of op
		{ID: 6, Parent: 1, Name: "b", Start: 95, End: 120}, // clipped at the parent's end
	}
	self := selfTimes(spans)
	for id, want := range map[uint32]int64{1: 100 - 40 - 10 - 5, 2: 20 - 6, 3: 30, 4: 10, 5: 6, 6: 25} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	layers := byLayer(spans)
	if a := layers["a"]; a.Count != 2 || math.Abs(a.TotalUS-0.03) > 1e-9 || math.Abs(a.SelfUS-0.024) > 1e-9 {
		t.Errorf("layer a = %+v, want 2 spans, 0.03 us total, 0.024 us self", a)
	}
}

func TestTracerRecordsNothingWhenNil(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", tr.beginOp())
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer gave span id %d", id)
	}
}

// TestSmoke runs both passes of all five workloads with 0.2 s windows and
// a short warm-up: every answer must match the model, every declared
// metric must be printed, and the files must be written. It asserts
// nothing about how fast anything ran.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	o := options{seed: 3, seconds: 1, windows: 5, outDir: out, warmScale: 0.05}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			res, err := runE2E(wl, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want above 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			if res.Stamp.Samples == 0 || res.Stamp.GoVersion == "" || res.Stamp.NProc == 0 || res.Stamp.WindowS <= 0 || res.Stamp.HostRefNS <= 0 {
				t.Errorf("stamp incomplete: %+v", res.Stamp)
			}

			res, err = runTraced(wl, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			var tf traceFile
			b, err := os.ReadFile(filepath.Join(out, "trace-"+wl.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Recorded == 0 || len(tf.Spans) == 0 || tf.Layers["op"].Count == 0 {
				t.Errorf("trace file holds %d spans, %d written, %d ops", tf.Recorded, len(tf.Spans), tf.Layers["op"].Count)
			}
			for name, lt := range tf.Layers {
				if lt.SelfUS < 0 || lt.SelfUS > lt.TotalUS {
					t.Errorf("layer %s: self %v us of total %v us", name, lt.SelfUS, lt.TotalUS)
				}
			}
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("attempted %d, failed %d, findings %v", res.Attempted, res.Failed, res.Findings)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("metric %s not printed", d.Name)
		}
	}
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]value
	}
	if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
		t.Errorf("driver line %q: %v", res.driverLine(), err)
	}
}

// TestManifest keeps BENCHMARK.json at the root of the repository in step
// with the tables this package prints from.
func TestManifest(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := manifest(); string(got) != want {
		t.Errorf("BENCHMARK.json differs from the benchmark's tables; regenerate it with\n\tbash benchmark/run.sh -manifest > BENCHMARK.json\nwant:\n%s", want)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q) is repeated or too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 fit", len(perLayer))
	}
	for _, wl := range workloads {
		if len(wl.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 fit", wl.name, len(wl.why))
		}
	}
}
