package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dircache"
	"dircache/internal/fsapi"
	"dircache/internal/ninep"
	"dircache/internal/telemetry"
)

// TestServeSmoke is the `make serve-smoke` gate: boot dcserve on an
// ephemeral loopback port with the default deep-tree seed, run the
// in-repo 9P client through attach/walk/stat/readdir/read round trips,
// hold a listing to three RPCs and a warm walk+stat+clunk to two with the
// server's fid table back at its baseline after the next walk, and assert
// a clean shutdown.
func TestServeSmoke(t *testing.T) {
	sysC := make(chan *dircache.System, 1)
	testSysHook = func(s *dircache.System) { sysC <- s }
	defer func() { testSysHook = nil }()

	stop := make(chan struct{})
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", false, "deep:maven:6", "smoke=4000:4000,4001",
			0, 0, "", 0, 0, false, stop, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("dcserve exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("dcserve did not come up")
	}

	c, err := ninep.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}

	// The seeded tree lives under /srv; list it and walk the spine. A
	// listing is Twalk, Topen and one Tread marked eof: the directory fid's
	// clunk rides the next Twalk.
	rpcs := c.RPCs()
	d, err := root.WalkPath("srv")
	if err != nil {
		t.Fatalf("walk /srv: %v", err)
	}
	if err := d.Open(ninep.ORead); err != nil {
		t.Fatalf("open /srv: %v", err)
	}
	ents, err := d.ReadDir()
	if err != nil {
		t.Fatalf("readdir /srv: %v", err)
	}
	if len(ents) == 0 {
		t.Fatal("seeded tree is empty")
	}
	if err := d.Clunk(); err != nil {
		t.Fatalf("clunk /srv: %v", err)
	}
	if n := c.RPCs() - rpcs; n != 3 {
		t.Fatalf("walk+open+readdir+clunk took %d RPCs, want 3", n)
	}

	// Descend to a leaf file (depth-first with backtracking past the
	// generator's empty decoy directories), stat it, and read it back.
	leaf := findLeaf(t, root, "", 0)
	if leaf == "" {
		t.Fatal("no leaf file reachable from the attach root")
	}

	// A warm stat is Twalk + Tstat: the clunk of the never-opened fid
	// rides the next Twalk, which leaves the server's fid table where it
	// was.
	tel := (<-sysC).Telemetry()
	fidsLive := func() int64 {
		var doc struct {
			Stats map[string]map[string]int64 `json:"stats"`
		}
		if err := json.Unmarshal(tel.MetricsJSON(), &doc); err != nil {
			t.Fatalf("metrics JSON: %v", err)
		}
		return doc.Stats["ninep"]["fids_live"]
	}
	stat := func() {
		f, err := root.WalkPath(leaf)
		if err != nil {
			t.Fatalf("walk %s: %v", leaf, err)
		}
		if _, err := f.Stat(); err != nil {
			t.Fatalf("stat %s: %v", leaf, err)
		}
		if err := f.Clunk(); err != nil {
			t.Fatalf("clunk %s: %v", leaf, err)
		}
	}
	missing := func() {
		if _, err := root.WalkPath("srv/nope"); !errors.Is(err, fsapi.ENOENT) {
			t.Fatalf("walk to a missing name: %v", err)
		}
	}
	stat()
	missing()
	base, rpcs := fidsLive(), c.RPCs()
	stat()
	if n := c.RPCs() - rpcs; n != 2 {
		t.Fatalf("warm walk+stat+clunk took %d RPCs, want 2", n)
	}
	missing()
	if n := fidsLive(); n != base {
		t.Fatalf("fids_live %d after the next walk, want %d", n, base)
	}

	// A configured -users uname attaches; an unknown one is refused.
	if _, err := c.Attach("smoke", ""); err != nil {
		t.Fatalf("-users uname refused: %v", err)
	}
	if _, err := c.Attach("nobody-configured", ""); err == nil {
		t.Fatal("unknown uname attached")
	}
	c.Close()

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dcserve shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dcserve did not drain on stop")
	}
}

// TestServeTraceSmoke is the end-to-end tracing acceptance gate: a cold
// 14-component walk through the 9P client must flight-record exactly ONE
// stitched client+server trace (client RPC round trip, server Twalk
// dispatch, kernel walk stages with backend lookups), and a warm walk of
// a sibling must stitch the same way with the server span showing the
// fastpath's DLHT hit in place of the backend stages — all observable
// over the wire and on /slow + /metrics.json.
func TestServeTraceSmoke(t *testing.T) {
	sysC := make(chan *dircache.System, 1)
	testSysHook = func(s *dircache.System) { sysC <- s }
	defer func() { testSysHook = nil }()

	stop := make(chan struct{})
	ready := make(chan string, 2)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", false, "none", "", 0, 0,
			"127.0.0.1:0", 1 /* trace every walk */, 1, false, stop, ready)
	}()
	recv := func(what string) string {
		select {
		case s := <-ready:
			return s
		case err := <-done:
			t.Fatalf("dcserve exited before serving: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatalf("dcserve did not deliver %s", what)
		}
		return ""
	}
	addr := recv("9P address")
	maddr := recv("metrics address")
	sys := <-sysC
	tel := sys.Telemetry()
	tel.SetSlowThreshold(0) // flight-record every completed trace

	// Seed a 14-component spine in-process: /srv + 12 dirs + leaf.
	spine := "/srv"
	for i := 1; i <= 12; i++ {
		spine += fmt.Sprintf("/d%02d", i)
	}
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll(spine, 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	for _, leaf := range []string{"app.conf", "app.log"} {
		if err := p.WriteFile(spine+"/"+leaf, []byte(leaf), 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}

	c, err := ninep.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if !c.Traced() {
		t.Fatal("dctrace extension not negotiated")
	}
	c.SetTelemetry(tel)
	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}

	// Cold pass: drop every dentry, then one wire walk to the leaf.
	sys.DropCaches()
	leafA := strings.TrimPrefix(spine, "/") + "/app.conf"
	f, err := root.WalkPath(leafA)
	if err != nil {
		t.Fatalf("cold WalkPath: %v", err)
	}
	f.Clunk()

	traces, _ := tel.SlowTraces()
	groups := telemetry.StitchTraces(traces)
	var stitched []*telemetry.StitchedTrace
	for i := range groups {
		if hasSpanOrigin(&groups[i], "client") && hasSpanOrigin(&groups[i], "server") {
			stitched = append(stitched, &groups[i])
		}
	}
	if len(stitched) != 1 {
		t.Fatalf("cold walk produced %d stitched client+server traces, want exactly 1", len(stitched))
	}
	var sawRPC, sawBackend bool
	for _, sp := range stitched[0].Spans {
		for _, ev := range sp.Events {
			switch {
			case sp.Origin == "client" && ev.Kind == telemetry.EvRPC:
				sawRPC = true
			case sp.Origin == "server" && ev.Kind == telemetry.EvFSLookup:
				sawBackend = true
			}
		}
	}
	if !sawRPC {
		t.Error("cold stitched trace has no client rpc event")
	}
	if !sawBackend {
		t.Error("cold stitched trace's server span shows no backend lookup stage")
	}

	// Warm pass: repeat touches publish the sibling (AdmitAfter=2), then
	// one more wire walk — its stitched server span must show the whole
	// path answered by a DLHT probe.
	leafB := strings.TrimPrefix(spine, "/") + "/app.log"
	for i := 0; i < 4; i++ {
		f, err := root.WalkPath(leafB)
		if err != nil {
			t.Fatalf("warm WalkPath: %v", err)
		}
		f.Clunk()
	}
	rpcs := c.RPCs()
	if _, err := root.WalkPath(leafB + "x"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT for missing sibling, got %v", err)
	}
	if n := c.RPCs() - rpcs; n != 1 {
		t.Fatalf("missing sibling took %d RPCs, want 1 (the partial Rwalk carries the errno)", n)
	}

	traces, _ = tel.SlowTraces()
	groups = telemetry.StitchTraces(traces)
	sawWarm := false
	for i := range groups {
		if !hasSpanOrigin(&groups[i], "client") {
			continue
		}
		for _, sp := range groups[i].Spans {
			if sp.Origin != "server" || sp.Path != "/"+leafB {
				continue
			}
			for _, ev := range sp.Events {
				sawWarm = sawWarm || ev.Kind == telemetry.EvDLHTHit
			}
		}
	}
	if !sawWarm {
		t.Fatal("no stitched warm walk shows a dlht_hit event on its server span")
	}

	// The same stories must be readable off the ops endpoints.
	slowBody := httpGet(t, "http://"+maddr+"/slow")
	for _, want := range []string{`"origin": "client"`, `"origin": "server"`, telemetry.EvDLHTHit, telemetry.EvRPC} {
		if !strings.Contains(slowBody, want) {
			t.Errorf("/slow output missing %q", want)
		}
	}
	metricsBody := httpGet(t, "http://"+maddr+"/metrics.json")
	if !strings.Contains(metricsBody, `"trace_id"`) {
		t.Error("/metrics.json carries no histogram exemplars (no trace_id in any bucket)")
	}

	p.Exit()
	c.Close()
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dcserve shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dcserve did not drain on stop")
	}
}

func hasSpanOrigin(g *telemetry.StitchedTrace, origin string) bool {
	for _, sp := range g.Spans {
		if sp.Origin == origin {
			return true
		}
	}
	return false
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body)
}

// findLeaf depth-first-searches the exported tree over the wire for a
// regular file, exercising walk/open/readdir/stat/read as it goes, and
// returns its path relative to the attach root ("" if there is none).
func findLeaf(t *testing.T, dir *ninep.Fid, path string, depth int) string {
	t.Helper()
	if depth > 40 {
		return ""
	}
	dh, err := dir.Walk() // clone: an open fid cannot walk
	if err != nil {
		t.Fatalf("clone %q: %v", path, err)
	}
	if err := dh.Open(ninep.ORead); err != nil {
		t.Fatalf("open %q: %v", path, err)
	}
	ents, err := dh.ReadDir()
	if err != nil {
		t.Fatalf("readdir %q: %v", path, err)
	}
	dh.Clunk()
	for _, e := range ents {
		if e.Mode&ninep.DMDir != 0 {
			continue
		}
		ff, err := dir.WalkPath(e.Name)
		if err != nil {
			t.Fatalf("walk file %s/%s: %v", path, e.Name, err)
		}
		st, err := ff.Stat()
		if err != nil {
			t.Fatalf("stat %s/%s: %v", path, e.Name, err)
		}
		if err := ff.Open(ninep.ORead); err != nil {
			t.Fatalf("open file: %v", err)
		}
		data, err := ff.ReadAll()
		if err != nil {
			t.Fatalf("read file: %v", err)
		}
		if uint64(len(data)) != st.Length {
			t.Fatalf("read %d bytes of %s/%s, stat says %d", len(data), path, e.Name, st.Length)
		}
		ff.Clunk()
		return strings.TrimPrefix(path+"/"+e.Name, "/")
	}
	for _, e := range ents {
		if e.Mode&ninep.DMDir == 0 {
			continue
		}
		child, err := dir.WalkPath(e.Name)
		if err != nil {
			t.Fatalf("walk %s/%s: %v", path, e.Name, err)
		}
		found := findLeaf(t, child, path+"/"+e.Name, depth+1)
		child.Clunk()
		if found != "" {
			return found
		}
	}
	return ""
}

func TestParseUsers(t *testing.T) {
	m, err := parseUsers("alice=1000:1000,10,20;bob=1001")
	if err != nil {
		t.Fatal(err)
	}
	want := dircache.UserCreds(1000, 10, 20)
	got := m["alice"]
	if got.UID != 1000 || got.GID != 1000 || len(got.Groups) != len(want.Groups) {
		t.Fatalf("alice parsed as %+v", got)
	}
	if b := m["bob"]; b.UID != 1001 || b.GID != 1001 {
		t.Fatalf("bob parsed as %+v", b)
	}
	if _, err := parseUsers("broken"); err == nil {
		t.Fatal("accepted entry without =")
	}
}
