package dircache_test

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dircache"
	"dircache/internal/ninep"
	"dircache/internal/shard"
)

var updateCatalog = flag.Bool("update", false, "rewrite testdata/metric_catalog.txt from this run")

const catalogFile = "testdata/metric_catalog.txt"

// catalogPatterns turn the dynamic parts of a series into placeholders:
// the per-user op rows, the per-shard sources, the per-namespace DLHT
// rows, and which histogram buckets hold an exemplar (that follows
// timing).
var catalogPatterns = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`,?le="[^"]*"`), ""},
	{regexp.MustCompile(`\{\}`), ""},
	{regexp.MustCompile(`source="shard\d+"`), `source="shard<N>"`},
	{regexp.MustCompile(`name="ops_user_[^"]*"`), `name="ops_user_<uname>"`},
	{regexp.MustCompile(`name="dlht\d+_`), `name="dlht<N>_`},
	{regexp.MustCompile(`^dircache_latency_exemplar\{.*\}$`), `dircache_latency_exemplar{hist="<hist>",quantile="<q>"}`},
}

// metricCatalog lists the series names of a /metrics page, sorted, each
// once, with the dynamic parts as patterns.
func metricCatalog(page []byte) []string {
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		for _, p := range catalogPatterns {
			series = p.re.ReplaceAllString(series, p.with)
		}
		seen[series] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestMetricCatalog pins the series /metrics exports for one scenario —
// a System with telemetry on, a 9P server on it with a client attached,
// and a two-shard group registered beside it — against a golden file, so
// a change to how snapshots become series cannot rename, add or drop one
// unnoticed. Regenerate it with `go test -run TestMetricCatalog -update .`.
func TestMetricCatalog(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	sys.EnableTelemetry(dircache.TelemetryOptions{})
	p := sys.Start(dircache.RootCreds())
	if err := p.Mkdir("/a", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Stat("/a"); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := ninep.Serve(sys, "127.0.0.1:0", ninep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := ninep.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Walk("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat(); err != nil {
		t.Fatal(err)
	}

	g := shard.NewLocalGroup(2, dircache.Optimized(), shard.Options{})
	tl := sys.Telemetry()
	dircache.RegisterSystems(tl, "shard", g.Systems...)

	var page bytes.Buffer
	tl.WritePrometheus(&page)
	got := strings.Join(metricCatalog(page.Bytes()), "\n") + "\n"

	if *updateCatalog {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(catalogFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(catalogFile)
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestMetricCatalog -update .)", err)
	}
	if got != string(want) {
		gotSet := map[string]bool{}
		for _, s := range strings.Split(got, "\n") {
			gotSet[s] = true
		}
		wantSet := map[string]bool{}
		for _, s := range strings.Split(string(want), "\n") {
			wantSet[s] = true
			if !gotSet[s] {
				t.Errorf("series gone: %s", s)
			}
		}
		for s := range gotSet {
			if !wantSet[s] {
				t.Errorf("series added: %s", s)
			}
		}
		t.Fatalf("/metrics no longer matches %s", catalogFile)
	}
}
