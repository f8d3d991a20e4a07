package shard

import (
	"fmt"
	"testing"

	"dircache"
	"dircache/internal/coherence"
	"dircache/internal/fsapi"
	"dircache/internal/ninep"
)

// wireGroup is the over-the-wire deployment: n Systems sharing one
// backend, each behind its own 9P server, fronted by Remote shards.
type wireGroup struct {
	Backend *dircache.Backend
	Systems []*dircache.System
	Servers []*ninep.Server
	Remotes []*Remote
	Router  *Router
}

func newWireGroup(t *testing.T, n int) *wireGroup {
	t.Helper()
	backend := dircache.NewMemBackend(dircache.MemOptions{})
	g := &wireGroup{Backend: backend}
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		cfg := dircache.Optimized()
		cfg.SignatureSeed = 0x5eed
		cfg.Root = backend
		sys := dircache.New(cfg)
		srv, err := ninep.Serve(sys, "127.0.0.1:0", ninep.Config{})
		if err != nil {
			t.Fatalf("Serve shard %d: %v", i, err)
		}
		rem, err := DialRemote(srv.Addr().String(), "root")
		if err != nil {
			t.Fatalf("DialRemote shard %d: %v", i, err)
		}
		g.Systems = append(g.Systems, sys)
		g.Servers = append(g.Servers, srv)
		g.Remotes = append(g.Remotes, rem)
		shards = append(shards, rem)
	}
	g.Router = NewRouter(shards, Options{})
	t.Cleanup(func() {
		g.Router.Close()
		for _, srv := range g.Servers {
			srv.Close()
		}
	})
	return g
}

// TestWireShardTier: the 2-shard over-the-wire deployment — route ops
// through Remote shards, storm same-directory renames, converge over the
// Tjournal/Tshoot legs, and verify no endpoint serves the old names.
func TestWireShardTier(t *testing.T) {
	g := newWireGroup(t, 2)

	// Build /srv/app{0,1}/lib/pkg{0..3}/file.go: directories through shard
	// 0, files through the router, converging between phases as the local
	// tier does.
	var files []string
	for a := 0; a < 2; a++ {
		for p := 0; p < 4; p++ {
			dir := fmt.Sprintf("/srv/app%d/lib/pkg%d", a, p)
			if err := g.Remotes[0].MkdirAll(dir, 0o755); err != nil {
				t.Fatalf("MkdirAll %s: %v", dir, err)
			}
			files = append(files, dir+"/file.go")
		}
	}
	if !g.Router.Converge(0) {
		t.Fatal("mkdir phase did not converge")
	}
	for _, f := range files {
		if err := g.Router.WriteFile(f, []byte("package x\n"), 0o644); err != nil {
			t.Fatalf("WriteFile %s: %v", f, err)
		}
	}
	if !g.Router.Converge(0) {
		t.Fatal("create phase did not converge")
	}

	// Warm EVERY endpoint's cache on every path, so each server holds the
	// soon-to-be-stale subtree as walk ancestors.
	for _, rem := range g.Remotes {
		for _, f := range files {
			if _, err := rem.Lstat(f); err != nil {
				t.Fatalf("warm Lstat %s: %v", f, err)
			}
		}
	}

	// Routed reads answer correctly. A listing is 3 RPCs (Twalk, Topen, one
	// Tread marked eof; the directory fid's clunk rides the next Twalk) and
	// a file read 4 (the open file's Tclunk is sent).
	rpcs := func() (n int64) {
		for _, rem := range g.Remotes {
			n += rem.c.RPCs()
		}
		return n
	}
	if fi, err := g.Router.Stat(files[0]); err != nil || fi.IsDir() {
		t.Fatalf("Stat %s: %v %v", files[0], fi, err)
	}
	before := rpcs()
	if ents, err := g.Router.ReadDir("/srv/app0/lib/pkg0"); err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
	if n := rpcs() - before; n != 3 {
		t.Fatalf("ReadDir took %d RPCs, want 3", n)
	}
	before = rpcs()
	if data, err := g.Router.ReadFile(files[1]); err != nil || string(data) != "package x\n" {
		t.Fatalf("ReadFile: %q %v", data, err)
	}
	if n := rpcs() - before; n != 4 {
		t.Fatalf("ReadFile took %d RPCs, want 4", n)
	}

	// Rename storm: same-directory renames (the only shape 9P expresses),
	// one per app root, executed through the router.
	for a := 0; a < 2; a++ {
		old := fmt.Sprintf("/srv/app%d", a)
		if err := g.Router.Rename(old, old+"-moved"); err != nil {
			t.Fatalf("Rename %s: %v", old, err)
		}
	}
	if !g.Router.Converge(0) {
		t.Fatal("rename storm did not converge")
	}
	pub, applied, fallbacks := g.Router.Stats()
	if pub == 0 || applied == 0 {
		t.Fatalf("no coherence traffic over the wire: published=%d applied=%d", pub, applied)
	}
	if fallbacks != 0 {
		t.Fatalf("unexpected fell-behind fallbacks: %d", fallbacks)
	}

	// Zero stale reads: EVERY endpoint — owner or not — answers ENOENT for
	// the old names, in one RPC (the partial Rwalk carries the errno), and
	// resolves the new ones in two (Twalk, Tstat: the fid's clunk rides the
	// next Twalk).
	for ri, rem := range g.Remotes {
		for a := 0; a < 2; a++ {
			old := fmt.Sprintf("/srv/app%d/lib/pkg0/file.go", a)
			niu := fmt.Sprintf("/srv/app%d-moved/lib/pkg0/file.go", a)
			rpcs := rem.c.RPCs()
			if _, err := rem.Lstat(old); fsapi.ToErrno(err) != fsapi.ENOENT {
				t.Fatalf("stale read on endpoint %d: Lstat(%s) = %v, want ENOENT", ri, old, err)
			}
			if n := rem.c.RPCs() - rpcs; n != 1 {
				t.Fatalf("endpoint %d: Lstat of missing %s took %d RPCs, want 1", ri, old, n)
			}
			rpcs = rem.c.RPCs()
			if _, err := rem.Stat(niu); err != nil {
				t.Fatalf("endpoint %d cannot resolve moved path %s: %v", ri, niu, err)
			}
			if n := rem.c.RPCs() - rpcs; n != 2 {
				t.Fatalf("endpoint %d: Stat of %s took %d RPCs, want 2", ri, niu, n)
			}
		}
	}

	// Quiescent tier: no unconsumed coherence events, no findings.
	for i, lag := range g.Router.Lag() {
		if lag != 0 {
			t.Fatalf("shard %d coherence lag %d after converge", i, lag)
		}
	}
	if f := g.Router.Audit(nil); len(f) != 0 {
		t.Fatalf("wire audit found: %v", f)
	}
}

// TestWireShootdownFallback: Tshoot with an empty path is the wire leg of
// the fail-closed fallback — the endpoint drops everything and re-walks
// from the backend.
func TestWireShootdownFallback(t *testing.T) {
	g := newWireGroup(t, 2)
	if err := g.Remotes[0].MkdirAll("/srv/data", 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if err := g.Remotes[1].WriteFile("/srv/data/f.txt", []byte("x"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if !g.Router.Converge(0) {
		t.Fatal("creations did not converge")
	}
	if _, err := g.Remotes[0].Lstat("/srv/data/f.txt"); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if n := g.Remotes[0].InvalidateAll(); n == 0 {
		t.Fatal("InvalidateAll dropped nothing despite a warm cache")
	}
	if _, err := g.Remotes[0].Lstat("/srv/data/f.txt"); err != nil {
		t.Fatalf("Lstat after full shootdown: %v", err)
	}
}

// TestWireDeadStreamFailsClosed: a journal stream that cannot be read
// must not look caught up — the subscriber is told it fell behind, so the
// router drops the peers' caches instead of trusting them.
func TestWireDeadStreamFailsClosed(t *testing.T) {
	g := newWireGroup(t, 2)
	if err := g.Remotes[0].MkdirAll("/srv/data", 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if !g.Router.Converge(0) {
		t.Fatal("creations did not converge")
	}
	_, cursor, fell := g.Remotes[0].EventsSince(0)
	if fell || cursor == 0 {
		t.Fatalf("live stream: cursor=%d fell=%v", cursor, fell)
	}
	g.Remotes[0].Close()
	recs, next, fell := g.Remotes[0].EventsSince(cursor)
	if !fell || len(recs) != 0 || next != cursor {
		t.Fatalf("dead stream: %d records, next=%d (cursor %d), fell=%v; want fell-behind at the same cursor",
			len(recs), next, cursor, fell)
	}
	_, _, before := g.Router.Stats()
	g.Router.Pump()
	if _, _, after := g.Router.Stats(); after != before+1 {
		t.Fatalf("pump over a dead stream took %d fallbacks, want 1", after-before)
	}
}

// TestWirePendingNeverWraps is TestPendingNeverWraps over the wire: a
// Remote's Pending follows the ring's contract, so a cursor past the
// head, and then a dead stream, read as the log's capacity — a reader
// owed a whole-cache drop — and never as caught up.
func TestWirePendingNeverWraps(t *testing.T) {
	g := newWireGroup(t, 2)
	if err := g.Router.Mkdir("/srv", 0o755); err != nil {
		t.Fatal(err)
	}
	r := g.Remotes[g.Router.Owner("/srv")]
	if got := r.Pending(0); got != 1 {
		t.Fatalf("Pending(0) = %d after one record", got)
	}
	if got := r.Pending(1); got != 0 {
		t.Fatalf("Pending(head) = %d", got)
	}
	for _, cursor := range []uint64{2, 1 << 40, ^uint64(0)} {
		if got := r.Pending(cursor); got != coherence.Capacity {
			t.Errorf("Pending(%d) past the head = %d, want the log's capacity %d", cursor, got, coherence.Capacity)
		}
		if _, _, fell := r.EventsSince(cursor); !fell {
			t.Errorf("EventsSince(%d) past the head did not report fell-behind", cursor)
		}
	}
	r.Close()
	if got := r.Pending(0); got != coherence.Capacity {
		t.Errorf("Pending(0) on a dead stream = %d, want the log's capacity %d", got, coherence.Capacity)
	}
}
