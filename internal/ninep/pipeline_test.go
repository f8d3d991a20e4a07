package ninep

import (
	"net"
	"sync"
	"testing"
	"time"
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
