package dircache

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"testing"
)

// counterIDs returns the names of the vfs.Counter constants in declaration
// order, numCounters excluded, read from their source.
func counterIDs(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "vfs", "stats.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		if typ, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "Counter" {
			continue
		}
		var ids []string
		for _, spec := range gd.Specs {
			for _, n := range spec.(*ast.ValueSpec).Names {
				if n.Name != "numCounters" {
					ids = append(ids, n.Name)
				}
			}
		}
		return ids
	}
	t.Fatal("no Counter const block in internal/vfs/stats.go")
	return nil
}

// metricsStats returns the counter sources of tl's /metrics.json.
func metricsStats(t *testing.T, tl *Telemetry) map[string]map[string]int64 {
	t.Helper()
	var doc struct {
		Stats map[string]map[string]int64 `json:"stats"`
	}
	if err := json.Unmarshal(tl.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Stats
}

// cacheStatsGauges are the CacheStats fields that are gauges, not
// counters: Delta passes the current value through instead of
// subtracting. Adding a field here is an API decision — document it in
// the CacheStats comment too.
var cacheStatsGauges = map[string]bool{
	"Dentries": true,
}

// TestCacheStatsDeltaCoverage walks CacheStats by reflection and proves
// Delta handles every field as the CacheStats comment promises: counters
// are subtracted, the registered gauges pass through, and every field is
// an int64 Delta can subtract.
func TestCacheStatsDeltaCoverage(t *testing.T) {
	typ := reflect.TypeOf(CacheStats{})
	var prev, cur CacheStats
	pv := reflect.ValueOf(&prev).Elem()
	cv := reflect.ValueOf(&cur).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("CacheStats.%s is %s; Delta only supports int64 fields", f.Name, f.Type)
		}
		// Distinct per-field values so a swapped or skipped field shows.
		pv.Field(i).SetInt(int64(i + 1))
		cv.Field(i).SetInt(int64((i + 1) * 10))
	}
	dv := reflect.ValueOf(cur.Delta(prev))
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		want := int64((i+1)*10 - (i + 1))
		if cacheStatsGauges[name] {
			want = int64((i + 1) * 10) // gauge: current value carried through
		}
		if got := dv.Field(i).Int(); got != want {
			t.Errorf("Delta.%s = %d, want %d (gauge=%v)", name, got, want, cacheStatsGauges[name])
		}
	}
}

// TestCacheStatsCountersCoverage ties the three views of a cache counter
// together: counter ID i is CacheStats field i by name (NX is X), there are
// as many IDs as fields, every field is an int64 the snapshot can sum into,
// and the /metrics "system" source exports exactly the fields, each with
// its snapshot value.
func TestCacheStatsCountersCoverage(t *testing.T) {
	typ := reflect.TypeOf(CacheStats{})
	ids := counterIDs(t)
	if len(ids) != typ.NumField() {
		t.Errorf("%d counter IDs, %d CacheStats fields", len(ids), typ.NumField())
	}
	for i := 0; i < typ.NumField() && i < len(ids); i++ {
		f := typ.Field(i)
		if ids[i] != "N"+f.Name {
			t.Errorf("counter ID %d is %s, field %d is %s", i, ids[i], i, f.Name)
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("CacheStats.%s is %s, want int64", f.Name, f.Type)
		}
	}

	sys := New(Optimized())
	sys.EnableTelemetry(TelemetryOptions{})
	p := sys.Start(RootCreds())
	if err := p.MkdirAll("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Stat("/a/b")
	}
	exported := metricsStats(t, sys.Telemetry())["system"]
	want := sys.Stats()
	wv := reflect.ValueOf(want)
	if len(exported) != typ.NumField() {
		t.Errorf("system source exports %d names, CacheStats has %d fields", len(exported), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if got, ok := exported[name]; !ok || got != wv.Field(i).Int() {
			t.Errorf("system source %s = %d (present %v), snapshot %d", name, got, ok, wv.Field(i).Int())
		}
	}
}

// TestShardSourcesMatchSystem: RegisterSystems exports each shard's
// counters under the same names as the system source, and nothing else.
func TestShardSourcesMatchSystem(t *testing.T) {
	sys := New(Optimized())
	tl := sys.EnableTelemetry(TelemetryOptions{})
	RegisterSystems(tl, "shard", sys, New(Optimized()))
	stats := metricsStats(t, tl)
	for _, src := range []string{"shard0", "shard1"} {
		if got, want := len(stats[src]), len(stats["system"]); got != want {
			t.Errorf("%s exports %d names, system %d", src, got, want)
		}
		for name := range stats["system"] {
			if _, ok := stats[src][name]; !ok {
				t.Errorf("%s lacks %s", src, name)
			}
		}
	}
}
