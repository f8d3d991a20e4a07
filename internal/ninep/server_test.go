package ninep

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dircache"
	"dircache/internal/fsapi"
)

// startServer spins up a dcserve-equivalent over a fresh optimized System
// with a small seeded tree, and returns both plus a cleanup.
func startServer(t *testing.T, cfg Config) (*dircache.System, *Server) {
	t.Helper()
	sys := dircache.New(dircache.Optimized())
	sys.EnableTelemetry(dircache.TelemetryOptions{Enabled: true})
	root := sys.Start(dircache.RootCreds())
	defer root.Exit()
	mustMkdirAll(t, root, "/srv/app/config", 0o755)
	mustWrite(t, root, "/srv/app/config/app.conf", "listen=:9099\n")
	mustMkdirAll(t, root, "/srv/app/static/js", 0o755)
	mustWrite(t, root, "/srv/app/static/js/main.js", "console.log(1)\n")

	srv, err := Serve(sys, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return sys, srv
}

func mustMkdirAll(t *testing.T, p *dircache.Process, path string, perm uint32) {
	t.Helper()
	if err := p.MkdirAll(path, perm); err != nil {
		t.Fatalf("MkdirAll(%s): %v", path, err)
	}
}

func mustWrite(t *testing.T, p *dircache.Process, path, data string) {
	t.Helper()
	if err := p.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatalf("WriteFile(%s): %v", path, err)
	}
}

func TestServerAttachWalkReadStat(t *testing.T) {
	_, srv := startServer(t, Config{})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if !root.Qid.IsDir() {
		t.Fatalf("attach qid not a directory: %+v", root.Qid)
	}

	// Deep walk straight to the file.
	f, err := root.WalkPath("srv/app/config/app.conf")
	if err != nil {
		t.Fatalf("WalkPath: %v", err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Name != "app.conf" || st.Length != uint64(len("listen=:9099\n")) {
		t.Fatalf("stat mismatch: %+v", st)
	}
	if err := f.Open(ORead); err != nil {
		t.Fatalf("Open: %v", err)
	}
	data, err := f.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(data) != "listen=:9099\n" {
		t.Fatalf("read %q", data)
	}
	if err := f.Clunk(); err != nil {
		t.Fatalf("Clunk: %v", err)
	}

	// Directory listing through the wire.
	d, err := root.WalkPath("srv/app")
	if err != nil {
		t.Fatalf("walk dir: %v", err)
	}
	if err := d.Open(ORead); err != nil {
		t.Fatalf("open dir: %v", err)
	}
	ents, err := d.ReadDir()
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	names := map[string]bool{}
	for _, e := range ents {
		names[e.Name] = true
	}
	if !names["config"] || !names["static"] {
		t.Fatalf("listing missing entries: %+v", names)
	}
	d.Clunk()

	// Walk into a missing name fails with the errno intact.
	if _, err := root.WalkPath("srv/app/nope"); err == nil {
		t.Fatal("walk to missing path succeeded")
	} else if !errors.Is(err, dircache.ErrNotExist) {
		t.Fatalf("missing path: got %v, want ENOENT", err)
	}
}

func TestServerPartialWalk(t *testing.T) {
	_, srv := startServer(t, Config{})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatal(err)
	}
	// srv/app exist, "missing" does not: Rwalk must carry exactly 2 qids
	// and the errno of "missing" (dctrace is negotiated), and not bind
	// newfid.
	var resp Fcall
	err = c.rpc(&Fcall{Type: MsgTwalk, Fid: root.n, Newfid: 99,
		Wname: []string{"srv", "app", "missing", "deeper"}}, &resp)
	if err != nil {
		t.Fatalf("partial walk errored: %v", err)
	}
	if len(resp.Wqid) != 2 || resp.Errno != uint32(fsapi.ENOENT) {
		t.Fatalf("partial walk returned %d qids and errno %d, want 2 and ENOENT", len(resp.Wqid), resp.Errno)
	}
	if err := c.call(&Fcall{Type: MsgTclunk, Fid: 99}); err == nil {
		t.Fatal("newfid was bound by a partial walk")
	}
}

func TestServerCreateWriteRemove(t *testing.T) {
	_, srv := startServer(t, Config{})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.Attach("root", "/srv")
	if err != nil {
		t.Fatal(err)
	}
	d, err := root.Walk()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Create("notes.txt", 0o644, OWrite); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if n, err := d.Write([]byte("hi"), 0); err != nil || n != 2 {
		t.Fatalf("Write: n=%d err=%v", n, err)
	}
	d.Clunk()

	f, err := root.WalkPath("notes.txt")
	if err != nil {
		t.Fatalf("walk to created file: %v", err)
	}
	// Rename via wstat, then remove.
	ws := EmptyStat()
	ws.Name = "renamed.txt"
	if err := f.Wstat(ws); err != nil {
		t.Fatalf("Wstat rename: %v", err)
	}
	if err := f.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := root.WalkPath("renamed.txt"); err == nil {
		t.Fatal("removed file still walkable")
	}

	// Mkdir via Tcreate with DMDir.
	d2, err := root.Walk()
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Create("sub", DMDir|0o755, ORead); err != nil {
		t.Fatalf("Create dir: %v", err)
	}
	if !d2.Qid.IsDir() {
		t.Fatal("created dir qid not a directory")
	}
	d2.Clunk()
}

// TestServerPerCredPermissions is the acceptance check: two unames on one
// server observe different permission outcomes on the same subtree, and
// the auditor stays clean.
func TestServerPerCredPermissions(t *testing.T) {
	sys, srv := startServer(t, Config{})

	// Root-side setup: /shared readable by uid 1001 only.
	root := sys.Start(dircache.RootCreds())
	mustMkdirAll(t, root, "/shared/team/docs", 0o750)
	mustWrite(t, root, "/shared/team/docs/plan.md", "q3 plan\n")
	if err := root.Chown("/shared", 1001, 1001); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/shared/team", 1001, 1001); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/shared/team/docs", 1001, 1001); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/shared/team/docs/plan.md", 1001, 1001); err != nil {
		t.Fatal(err)
	}
	root.Exit()

	owner, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	other, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	of, err := owner.Attach("1001", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := of.WalkPath("shared/team/docs/plan.md"); err != nil {
		t.Fatalf("owner denied: %v", err)
	}

	xf, err := other.Attach("1002", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xf.WalkPath("shared/team/docs/plan.md"); !errors.Is(err, dircache.ErrPermission) {
		t.Fatalf("uid 1002 walking a 0750 uid-1001 subtree: got %v, want ErrPermission", err)
	}

	// Same check on ONE connection attached under both unames: fids carry
	// their attach credentials independently.
	both, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer both.Close()
	a1, err := both.Attach("1001", "")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := both.Attach("1002", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a1.WalkPath("shared/team/docs"); err != nil {
		t.Fatalf("owner fid denied on shared conn: %v", err)
	}
	if _, err := a2.WalkPath("shared/team/docs"); !errors.Is(err, dircache.ErrPermission) {
		t.Fatalf("other fid on shared conn: got %v, want ErrPermission", err)
	}

	if rep := sys.Doctor(); rep.Violations() != 0 {
		t.Fatalf("auditor found violations after cross-cred traffic:\n%s", rep.Summary())
	}
}

// TestServerConnChurnReusesProcesses checks that attach/disconnect cycles
// ride the Process pool instead of building fresh Tasks.
func TestServerConnChurnReusesProcesses(t *testing.T) {
	_, srv := startServer(t, Config{})
	for i := 0; i < 8; i++ {
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Attach("7", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WalkPath("srv/app"); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// Connections close asynchronously; the server drains them on Close.
	srv.Close()
	st := srv.Stats()
	if st.PoolReuses == 0 {
		t.Fatalf("8 sequential conns, zero pool reuses: %+v", st)
	}
	if st.FidsLive != 0 {
		t.Fatalf("fids leaked after close: %+v", st)
	}
}

// TestServerConcurrentConns hammers one subtree from many connections
// under several unames at once (run with -race).
func TestServerConcurrentConns(t *testing.T) {
	sys, srv := startServer(t, Config{})
	const conns = 16
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			f, err := c.Attach(fmt.Sprintf("%d", 100+i%4), "")
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 25; j++ {
				g, err := f.WalkPath("srv/app/static/js/main.js")
				if err != nil {
					errs <- fmt.Errorf("conn %d walk %d: %w", i, j, err)
					return
				}
				if _, err := g.Stat(); err != nil {
					errs <- err
					return
				}
				g.Clunk()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rep := sys.Doctor(); rep.Violations() != 0 {
		t.Fatalf("auditor after concurrent wire traffic:\n%s", rep.Summary())
	}
}

func TestServerRejectsUnknownUser(t *testing.T) {
	_, srv := startServer(t, Config{})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Attach("mallory", ""); err == nil {
		t.Fatal("unknown uname attached")
	}
}

func TestServerUsersMap(t *testing.T) {
	_, srv := startServer(t, Config{Users: map[string]dircache.Creds{
		"svc": dircache.UserCreds(900, 901, 902),
	}})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Attach("svc", ""); err != nil {
		t.Fatalf("configured uname refused: %v", err)
	}
}

// TestJournalSpansManyReplies pends more coherence records than one
// msize holds: every truncated Rjournal rewinds its cursor to the last
// record it shipped, so the client's re-poll loop must deliver each
// record exactly once, in order, and without claiming it fell behind.
func TestJournalSpansManyReplies(t *testing.T) {
	sys, srv := startServer(t, Config{MaxMsize: MinMsize})
	c, err := DialShard(srv.Addr().String())
	if err != nil {
		t.Fatalf("DialShard: %v", err)
	}
	defer c.Close()

	const pending = 200 // ~40 bytes each against 488 bytes of payload per reply
	for i := 0; i < pending; i++ {
		sys.PublishCoherence(fmt.Sprintf("/srv/app/static/js/f%03d", i), "create")
	}
	before := c.RPCs()
	recs, next, fell, err := c.Journal(0)
	if err != nil || fell {
		t.Fatalf("Journal: err=%v fell=%v", err, fell)
	}
	if polls := c.RPCs() - before; polls < pending*40/int64(MinMsize) {
		t.Fatalf("%d records arrived in %d replies of msize %d: nothing was truncated", pending, polls, MinMsize)
	}
	if len(recs) != pending || next != pending {
		t.Fatalf("got %d records and cursor %d, want %d and %d", len(recs), next, pending, pending)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("/srv/app/static/js/f%03d", i); r.ID != uint64(i+1) || r.Path != want || r.Note != "create" {
			t.Fatalf("record %d is %+v, want ID %d path %s", i, r, i+1, want)
		}
	}
	if recs, again, fell, err := c.Journal(next); err != nil || fell || len(recs) != 0 || again != next {
		t.Fatalf("caught-up re-read: %d records, cursor %d, fell=%v, err=%v", len(recs), again, fell, err)
	}

	// A record no reply can carry is not retried forever: the subscriber
	// is told it fell behind, and its cursor moves past the record.
	sys.PublishCoherence("/"+strings.Repeat("x", MinMsize), "create")
	if recs, after, fell, err := c.Journal(next); err != nil || !fell || len(recs) != 0 || after != next+1 {
		t.Fatalf("oversized record: %d records, cursor %d, fell=%v, err=%v; want fell-behind at %d",
			len(recs), after, fell, err, next+1)
	}
}
