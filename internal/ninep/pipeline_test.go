package ninep

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dircache"
	"dircache/internal/telemetry"
)

// rawConn drives the wire by hand — the package Client is synchronous, so
// proving out-of-order completion needs frames sent without waiting.
type rawConn struct {
	t  *testing.T
	nc net.Conn
}

func rawDial(t *testing.T, srv *Server) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (r *rawConn) send(f *Fcall) {
	r.t.Helper()
	out, err := Marshal(f)
	if err != nil {
		r.t.Fatalf("marshal %s: %v", MsgName(f.Type), err)
	}
	if _, err := r.nc.Write(out); err != nil {
		r.t.Fatalf("write %s: %v", MsgName(f.Type), err)
	}
}

func (r *rawConn) recv() *Fcall {
	r.t.Helper()
	f, _ := r.recvFrame()
	return f
}

// recvFrame is recv that also returns the frame's body as read.
func (r *rawConn) recvFrame() (*Fcall, []byte) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	body, err := ReadMsg(r.nc, MaxMsize)
	if err != nil {
		r.t.Fatalf("read: %v", err)
	}
	f, err := Unmarshal(body)
	if err != nil {
		r.t.Fatalf("unmarshal: %v", err)
	}
	return f, body
}

// handshake negotiates version, attaches fid 0 at "/", and walks fid 1 to
// a file.
func (r *rawConn) handshake(version string) {
	r.t.Helper()
	r.send(&Fcall{Type: MsgTversion, Tag: NoTag, Msize: DefaultMsize, Version: version})
	if resp := r.recv(); resp.Type != MsgRversion {
		r.t.Fatalf("handshake: got %s", MsgName(resp.Type))
	}
	r.send(&Fcall{Type: MsgTattach, Tag: 1, Fid: 0, Afid: NoFid, Uname: "root"})
	if resp := r.recv(); resp.Type != MsgRattach {
		r.t.Fatalf("attach: got %s (%s)", MsgName(resp.Type), resp.Ename)
	}
	r.send(&Fcall{Type: MsgTwalk, Tag: 2, Fid: 0, Newfid: 1,
		Wname: []string{"srv", "app", "config", "app.conf"}})
	if resp := r.recv(); resp.Type != MsgRwalk {
		r.t.Fatalf("walk: got %s (%s)", MsgName(resp.Type), resp.Ename)
	}
}

// TestPipelineOutOfOrderCompletion: with one tag stalled inside its
// handler, later tags on the same connection still complete — the
// pipelined dispatcher does not serialize the conn behind a slow request.
func TestPipelineOutOfOrderCompletion(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()

	_, srv := startServer(t, Config{})
	stall := func(f *Fcall) {
		if f.Type == MsgTstat && f.Tag == 77 {
			<-block
		}
	}
	srv.testStall.Store(&stall)
	r := rawDial(t, srv)
	r.handshake(Version)

	r.send(&Fcall{Type: MsgTstat, Tag: 77, Fid: 1}) // stalls in the handler
	r.send(&Fcall{Type: MsgTstat, Tag: 78, Fid: 0}) // must overtake it

	if resp := r.recv(); resp.Tag != 78 || resp.Type != MsgRstat {
		t.Fatalf("first response tag=%d type=%s; want the later tag 78 to complete first",
			resp.Tag, MsgName(resp.Type))
	}
	release()
	if resp := r.recv(); resp.Tag != 77 || resp.Type != MsgRstat {
		t.Fatalf("second response tag=%d type=%s; want the stalled tag 77",
			resp.Tag, MsgName(resp.Type))
	}
}

// TestPipelineFlushWaitsForOldtag: Rflush must not arrive before the
// flushed request's own response (the request had already taken effect;
// the server answers it, then confirms the flush).
func TestPipelineFlushWaitsForOldtag(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()

	_, srv := startServer(t, Config{})
	stall := func(f *Fcall) {
		if f.Type == MsgTstat && f.Tag == 80 {
			<-block
		}
	}
	srv.testStall.Store(&stall)
	r := rawDial(t, srv)
	r.handshake(Version)

	r.send(&Fcall{Type: MsgTstat, Tag: 80, Fid: 1})
	r.send(&Fcall{Type: MsgTflush, Tag: 81, Oldtag: 80})
	// Give the flush waiter a moment to (incorrectly) jump the queue.
	time.Sleep(20 * time.Millisecond)
	release()

	first, second := r.recv(), r.recv()
	if first.Tag != 80 || first.Type != MsgRstat {
		t.Fatalf("first response tag=%d type=%s; want the flushed Rstat before Rflush",
			first.Tag, MsgName(first.Type))
	}
	if second.Tag != 81 || second.Type != MsgRflush {
		t.Fatalf("second response tag=%d type=%s; want Rflush", second.Tag, MsgName(second.Type))
	}

	// Flushing a settled (unknown) tag answers immediately.
	r.send(&Fcall{Type: MsgTflush, Tag: 82, Oldtag: 80})
	if resp := r.recv(); resp.Tag != 82 || resp.Type != MsgRflush {
		t.Fatalf("flush of settled tag: got tag=%d type=%s", resp.Tag, MsgName(resp.Type))
	}
}

// TestPipelineDuplicateTagRejected: reusing a tag that is still in flight
// is a protocol error, answered without disturbing the original request.
func TestPipelineDuplicateTagRejected(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	defer release()

	_, srv := startServer(t, Config{})
	var stallOnce sync.Once
	stall := func(f *Fcall) {
		if f.Type == MsgTstat && f.Tag == 90 {
			stallOnce.Do(func() { <-block })
		}
	}
	srv.testStall.Store(&stall)
	r := rawDial(t, srv)
	r.handshake(Version)

	r.send(&Fcall{Type: MsgTstat, Tag: 90, Fid: 1})
	r.send(&Fcall{Type: MsgTstat, Tag: 90, Fid: 0}) // duplicate while in flight

	if resp := r.recv(); resp.Tag != 90 || resp.Type != MsgRerror {
		t.Fatalf("duplicate tag answered tag=%d type=%s; want Rerror", resp.Tag, MsgName(resp.Type))
	}
	release()
	if resp := r.recv(); resp.Tag != 90 || resp.Type != MsgRstat {
		t.Fatalf("original request answered tag=%d type=%s; want Rstat", resp.Tag, MsgName(resp.Type))
	}
}

// TestPipelineConcurrentClientsSameFidTable: many goroutines hammering
// distinct fids on one connection through the (mutex-serialized) Client
// still see consistent results — exercised fully under -race by make
// shard-smoke.
func TestPipelineConcurrentClientsSameFidTable(t *testing.T) {
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

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f, err := root.WalkPath("srv/app/config/app.conf")
				if err != nil {
					errs <- err
					return
				}
				if _, err := f.Stat(); err != nil {
					errs <- err
					return
				}
				if err := f.Clunk(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent client op: %v", err)
	}
}

// TestPipelineTracedSpansStayPrivate: on one dc connection under one
// uname, pipelined Tstats and Twalks to distinct paths, every other one
// carrying a trace id, run concurrently on the connection's one Process.
// Each traced request's server span must hold its own kernel walk and no
// other: one walk summary, and every path or component an event names
// belongs to the span's path. A span armed where an untraced or another
// traced walk could take it fails this with a foreign path.
func TestPipelineTracedSpansStayPrivate(t *testing.T) {
	sys, srv := startServer(t, Config{})
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	const n, rounds = 32, 4
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/srv/t/d%02d/f%02d", i, i)
		mustMkdirAll(t, p, fmt.Sprintf("/srv/t/d%02d", i), 0o755)
		mustWrite(t, p, paths[i], "x")
	}
	r := rawDial(t, srv)
	r.handshake(VersionDC)
	statFid := func(i int) uint32 { return 100 + uint32(i) }
	for i, path := range paths {
		r.send(&Fcall{Type: MsgTwalk, Tag: 3, Fid: 0, Newfid: statFid(i), Wname: strings.Split(path[1:], "/")})
		if resp := r.recv(); resp.Type != MsgRwalk {
			t.Fatalf("walk to %s: %s (%s)", path, MsgName(resp.Type), resp.Ename)
		}
	}

	traceID := func(round, i int) uint64 { return uint64(1000*(round+1) + i) }
	for round := 0; round < rounds; round++ {
		sys.DropCaches() // cold walks: slow-walk component events as well as the fastpath's
		for i, path := range paths {
			req := &Fcall{Type: MsgTstat, Tag: uint16(i), Fid: statFid(i)}
			if i%4 >= 2 {
				req = &Fcall{Type: MsgTwalk, Tag: uint16(i), Fid: 0, Newfid: 200 + uint32(i), Wname: strings.Split(path[1:], "/")}
			}
			if i%2 == 0 {
				req.TraceID = traceID(round, i)
			}
			r.send(req)
		}
		for range paths {
			if resp := r.recv(); resp.Type == MsgRerror {
				t.Fatalf("tag %d: %s", resp.Tag, resp.Ename)
			}
		}
		for i := 2; i < n; i += 4 {
			for _, fid := range []uint32{200 + uint32(i), 200 + uint32(i+1)} {
				r.send(&Fcall{Type: MsgTclunk, Tag: 3, Fid: fid})
				if resp := r.recv(); resp.Type != MsgRclunk {
					t.Fatalf("clunk %d: %s (%s)", fid, MsgName(resp.Type), resp.Ename)
				}
			}
		}
	}

	spans := map[uint64]*telemetry.WalkTrace{}
	traces, _ := sys.Telemetry().Traces()
	for _, tr := range traces {
		if tr.Origin == "server" {
			spans[tr.RemoteID] = tr
		}
	}
	if len(spans) != rounds*n/2 {
		t.Fatalf("%d server spans, want one per traced request (%d)", len(spans), rounds*n/2)
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i += 2 {
			sp := spans[traceID(round, i)]
			if sp == nil || sp.Path != paths[i] {
				t.Fatalf("round %d: traced request to %s has span %+v", round, paths[i], sp)
			}
			checkSpanPrivate(t, sp)
		}
	}
}

// checkSpanPrivate fails unless sp holds exactly one kernel walk and every
// path or component its events name is sp.Path or one of its components.
func checkSpanPrivate(t *testing.T, sp *telemetry.WalkTrace) {
	t.Helper()
	comps := strings.Split(sp.Path[1:], "/")
	walks, own := 0, 0
	for _, ev := range sp.Events {
		switch ev.Kind {
		case telemetry.EvWalkDone:
			walks++
		case telemetry.EvDLHTHit, telemetry.EvDLHTMiss:
			if ev.Detail != sp.Path {
				t.Errorf("span for %s (%s) holds %s %s", sp.Path, sp.Op, ev.Kind, ev.Detail)
			}
			own++
		case telemetry.EvComponent, telemetry.EvHashHit, telemetry.EvFSLookup:
			if !slices.Contains(comps, ev.Detail) {
				t.Errorf("span for %s (%s) holds %s %s", sp.Path, sp.Op, ev.Kind, ev.Detail)
			}
			own++
		}
	}
	if walks != 1 || own == 0 {
		t.Errorf("span for %s (%s) holds %d walks and %d events of its own: %+v", sp.Path, sp.Op, walks, own, sp.Events)
	}
}

// tagCheckConn is the write side of a connection that, as each response
// frame is written, records whether the server still holds the frame's
// tag in flight. Only Write is ever called on it.
type tagCheckConn struct {
	net.Conn
	c      *conn
	writes int
	held   []uint16
}

func (w *tagCheckConn) Write(p []byte) (int, error) {
	tag := binary.LittleEndian.Uint16(p[5:7])
	w.c.mu.Lock()
	if _, ok := w.c.inflight[tag]; ok {
		w.held = append(w.held, tag)
	}
	w.c.mu.Unlock()
	w.writes++
	return len(p), nil
}

// TestTagFreedBeforeReplyWritten: a client may reuse a tag the moment
// its answer arrives, so the worker frees the tag before the answer's
// frame goes out — else the reuse races the worker's cleanup and reads
// "duplicate tag". The requests are fed to a resident worker the way the
// reader feeds them, and the connection's Write looks at the in-flight
// table as each frame is written.
func TestTagFreedBeforeReplyWritten(t *testing.T) {
	srv := NewServer(dircache.New(dircache.Optimized()), Config{})
	w := &tagCheckConn{}
	c := &conn{
		srv: srv, nc: w, msize: DefaultMsize,
		fids: map[uint32]*fidEntry{}, procs: map[string]*dircache.Process{},
		inflight: map[uint16]chan struct{}{}, work: make(chan Fcall),
	}
	w.c = c
	c.workerWG.Add(1)
	go c.worker()
	const n = 8
	for tag := uint16(1); tag <= n; tag++ {
		c.mu.Lock()
		c.inflight[tag] = nil
		c.mu.Unlock()
		c.reqs.Add(1)
		c.busy.Add(1)
		c.work <- Fcall{Type: MsgTclunk, Tag: tag, Fid: 99} // unknown fid: an Rerror
	}
	close(c.work)
	c.workerWG.Wait()
	if w.writes != n || len(w.held) != 0 {
		t.Fatalf("%d frames written; tags still in flight as their answers were written: %v", w.writes, w.held)
	}
	if len(c.inflight) != 0 {
		t.Fatalf("tags left in flight after every answer: %v", c.inflight)
	}
}
