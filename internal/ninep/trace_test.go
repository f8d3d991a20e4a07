package ninep

import (
	"net"
	"testing"

	"dircache/internal/telemetry"
)

// TestTraceStitchAcrossWire drives one traced walk through the real
// client/server wire path and requires the client RPC span and the
// server dispatch span (annotated in place by the kernel walk) to
// stitch into one end-to-end trace by their shared wire trace id.
func TestTraceStitchAcrossWire(t *testing.T) {
	sys, srv := startServer(t, Config{})
	tel := sys.Telemetry().Raw()
	tel.SetTraceSample(1)
	tel.SetSlowThreshold("", 0) // flight-record every completed span

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if !c.Traced() {
		t.Fatal("dctrace extension not negotiated against our own server")
	}
	c.SetTelemetry(tel)

	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	sys.DropCaches() // force the server walk cold: real backend lookups
	f, err := root.WalkPath("srv/app/config/app.conf")
	if err != nil {
		t.Fatalf("WalkPath: %v", err)
	}
	f.Clunk()

	traces, _ := tel.SlowTraces()
	groups := telemetry.StitchTraces(traces)
	var group *telemetry.StitchedTrace
	for i := range groups {
		if hasOrigin(&groups[i], "client") && hasOrigin(&groups[i], "server") {
			group = &groups[i]
			break
		}
	}
	if group == nil {
		t.Fatalf("no stitched client+server trace among %d flight-recorded traces", len(traces))
	}

	var sawRPC, sawWalkStage bool
	for _, sp := range group.Spans {
		switch sp.Origin {
		case "client":
			for _, ev := range sp.Events {
				if ev.Kind == telemetry.EvRPC {
					sawRPC = true
				}
			}
		case "server":
			if sp.Op != "Twalk" {
				continue
			}
			for _, ev := range sp.Events {
				if ev.Kind == telemetry.EvFSLookup {
					sawWalkStage = true
				}
			}
		}
	}
	if !sawRPC {
		t.Error("client span carries no rpc event")
	}
	if !sawWalkStage {
		t.Error("server Twalk span was not annotated by the kernel walk (no backend lookup stage)")
	}
}

func hasOrigin(g *telemetry.StitchedTrace, origin string) bool {
	for _, sp := range g.Spans {
		if sp.Origin == origin {
			return true
		}
	}
	return false
}

// TestStockPeerFallback checks both halves of the silent-fallback
// contract: a stock 9P2000 client gets a stock reply (no dctrace), and
// a trace id sent on an un-negotiated connection is decoded but ignored
// — the walk succeeds and no server span is opened.
func TestStockPeerFallback(t *testing.T) {
	sys, srv := startServer(t, Config{})
	tel := sys.Telemetry().Raw()
	tel.SetTraceSample(1)
	tel.SetSlowThreshold("", 0)

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(nc) // hand-rolled: offers plain 9P2000
	defer c.Close()
	var resp Fcall
	err = c.rpc(&Fcall{Type: MsgTversion, Tag: NoTag, Msize: DefaultMsize, Version: Version}, &resp)
	if err != nil {
		t.Fatalf("Tversion: %v", err)
	}
	if resp.Version != Version {
		t.Fatalf("stock client negotiated %q, want %q", resp.Version, Version)
	}

	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// A rogue trailing trace id on an un-negotiated conn must be ignored.
	var wr Fcall
	err = c.rpc(&Fcall{Type: MsgTwalk, Fid: root.n, Newfid: c.fid(),
		Wname: []string{"srv", "app"}, TraceID: 0xabcdef}, &wr)
	if err != nil {
		t.Fatalf("Twalk with rogue trace id: %v", err)
	}
	if len(wr.Wqid) != 2 {
		t.Fatalf("walk resolved %d of 2 names", len(wr.Wqid))
	}
	traces, _ := tel.SlowTraces()
	for _, tr := range traces {
		if tr.Origin == "server" && tr.RemoteID == 0xabcdef {
			t.Fatal("server opened a span for a trace id on an un-negotiated connection")
		}
	}
}
