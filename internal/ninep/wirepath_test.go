package ninep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"dircache"
	"dircache/internal/fsapi"
)

// --- framing ----------------------------------------------------------

// frameStream is a message sequence that exercises every frameReader
// path: small frames, frames that straddle the end of the fixed buffer
// (forcing the slide), frames of exactly the buffer size, and Twrite/Rread
// payloads larger than the buffer up to a full msize.
func frameStream() []*Fcall {
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	msgs := []*Fcall{
		{Type: MsgTversion, Tag: NoTag, Msize: DefaultMsize, Version: VersionTrace},
		{Type: MsgTwalk, Tag: 1, Fid: 0, Newfid: 1, Wname: []string{"srv", "app", "config", "app.conf"}},
		{Type: MsgTwalk, Tag: 1, Fid: 0, Newfid: 2, Wname: []string{"srv"}, Clunks: [MaxWalkNames]uint32{1, 7}, Nclunk: 2}, // dc clunk list behind trace id 0
		{Type: MsgTwalk, Tag: 1, Fid: 0, Newfid: 3, Wname: []string{"srv", "app"}, TraceID: 42, Clunks: [MaxWalkNames]uint32{2}, Nclunk: 1},
		{Type: MsgRwalk, Tag: 1, Wqid: []Qid{{Type: QTDir, Path: 1}, {Path: 2}}},
		{Type: MsgRwalk, Tag: 1, Wqid: []Qid{{Type: QTDir, Path: 1}}, Errno: uint32(fsapi.ENOENT)}, // dc dialects' trailer
		{Type: MsgTstat, Tag: 2, Fid: 1, TraceID: 42},
		{Type: MsgRstat, Tag: 2, Stat: Stat{Name: "app.conf", UID: "1000", GID: "1000", MUID: "1000", Length: 13}},
		{Type: MsgRread, Tag: 3, Data: []byte("listen=:9099\n"), EOF: true}, // dc dialects' trailer
	}
	// Mid-size frames whose sizes do not divide the buffer, so some start
	// near its end.
	for i := 0; i < 12; i++ {
		msgs = append(msgs, &Fcall{Type: MsgTwrite, Tag: uint16(10 + i), Fid: 1, Data: payload(700 + 13*i)})
	}
	const hdr = 4 + 1 + 2 + 4 // size type tag count: an Rread's overhead
	for _, n := range []int{frameBufSize - hdr - 1, frameBufSize - hdr, frameBufSize - hdr + 1, 5000, 3 * frameBufSize, DefaultMsize - IOHeaderSize} {
		msgs = append(msgs,
			&Fcall{Type: MsgRread, Tag: 30, Data: payload(n)},
			&Fcall{Type: MsgTclunk, Tag: 31, Fid: 1}, // a small frame right behind a big one
			&Fcall{Type: MsgTwrite, Tag: 32, Fid: 1, Offset: 9, Data: payload(n)})
	}
	return msgs
}

// chunkReader delivers its stream in reads of seeded-random sizes.
type chunkReader struct {
	r   io.Reader
	rnd *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rnd.Intn(3000); n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// TestFrameReaderMatchesReference: however the bytes arrive — one at a
// time, every frame in one segment, or in random pieces — the buffered
// frame reader yields exactly what the reference ReadMsg+Unmarshal does.
func TestFrameReaderMatchesReference(t *testing.T) {
	msgs := frameStream()
	var wire []byte
	for _, m := range msgs {
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%s): %v", MsgName(m.Type), err)
		}
		wire = append(wire, b...)
	}
	ref := bytes.NewReader(wire)
	var want []*Fcall
	for range msgs {
		body, err := ReadMsg(ref, DefaultMsize)
		if err != nil {
			t.Fatalf("reference ReadMsg: %v", err)
		}
		f, err := Unmarshal(body)
		if err != nil {
			t.Fatalf("reference Unmarshal: %v", err)
		}
		want = append(want, f)
	}

	deliveries := map[string]func() io.Reader{
		"one byte at a time": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(wire)) },
		"all in one segment": func() io.Reader { return bytes.NewReader(wire) },
		"random pieces":      func() io.Reader { return &chunkReader{bytes.NewReader(wire), rand.New(rand.NewSource(3))} },
	}
	for name, mk := range deliveries {
		fr := frameReader{r: mk()}
		var got Fcall
		for i := range want {
			body, err := fr.next(DefaultMsize)
			if err != nil {
				t.Fatalf("%s: frame %d (%s): %v", name, i, MsgName(want[i].Type), err)
			}
			if err := got.unmarshal(body); err != nil {
				t.Fatalf("%s: frame %d: unmarshal: %v", name, i, err)
			}
			if !reflect.DeepEqual(&got, want[i]) {
				t.Fatalf("%s: frame %d (%s) decoded differently from the reference", name, i, MsgName(want[i].Type))
			}
		}
		if _, err := fr.next(DefaultMsize); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
}

// frameAtATime hands out one whole frame per Read, as a socket does for a
// closed-loop peer, and counts the reads.
type frameAtATime struct {
	frames [][]byte
	reads  int
}

func (f *frameAtATime) Read(p []byte) (int, error) {
	if len(f.frames) == 0 {
		return 0, io.EOF
	}
	f.reads++
	n := copy(p, f.frames[0])
	if n < len(f.frames[0]) {
		f.frames[0] = f.frames[0][n:]
	} else {
		f.frames = f.frames[1:]
	}
	return n, nil
}

// TestFrameReaderOneReadPerFrame: a frame that fits the buffer costs one
// read on the conn (the reference costs two), and a frame cut short is an
// unexpected EOF, not a clean one.
func TestFrameReaderOneReadPerFrame(t *testing.T) {
	src := &frameAtATime{}
	for i := 0; i < 100; i++ {
		b, _ := Marshal(&Fcall{Type: MsgTwalk, Tag: uint16(i + 1), Fid: 0, Newfid: 1, Wname: []string{"srv", "app", "config", "app.conf"}})
		src.frames = append(src.frames, b)
	}
	fr := frameReader{r: src}
	for i := 0; i < 100; i++ {
		if _, err := fr.next(DefaultMsize); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if src.reads != 100 {
		t.Fatalf("100 frames took %d reads, want 100", src.reads)
	}

	whole, _ := Marshal(&Fcall{Type: MsgTclunk, Tag: 1, Fid: 1})
	for cut := 1; cut < len(whole); cut++ {
		fr := frameReader{r: bytes.NewReader(whole[:cut])}
		if _, err := fr.next(DefaultMsize); err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut to %d of %d bytes: %v, want io.ErrUnexpectedEOF", cut, len(whole), err)
		}
	}
}

// frameErrKind classes a frame reader error for comparison with the
// reference's: the two build their size errors separately.
func frameErrKind(err error) string {
	switch err {
	case nil, io.EOF, io.ErrUnexpectedEOF:
		return fmt.Sprint(err)
	}
	return "size"
}

// FuzzFrameReader feeds arbitrary bytes to frameReader.next in random
// short reads and holds it to the reference splitter ReadMsg: the same
// frames in the same order, the same kind of error where the stream ends
// or breaks, a size error for a runt or over-msize size[4], and no panic.
func FuzzFrameReader(f *testing.F) {
	// Seeds stay a few KB: the fuzzer minimizes what it finds by re-running
	// the target once per byte, so a 40 KB stream stalls it.
	const msize = 2 * frameBufSize
	var small []byte
	for _, m := range frameStream() {
		if b, _ := Marshal(m); len(b) <= 512 {
			small = append(small, b...)
		}
	}
	big, _ := Marshal(&Fcall{Type: MsgRread, Tag: 30, Data: make([]byte, frameBufSize)})
	f.Add(small, int64(1))
	f.Add(append(big, small...), int64(2)) // a frame larger than the buffer, then small ones
	f.Add(small[:len(small)-3], int64(3))  // the stream ends inside a frame
	f.Add([]byte{6, 0, 0, 0, MsgTclunk, 1, 0}, int64(4))
	f.Add(binary.LittleEndian.AppendUint32(nil, msize+1), int64(5))
	f.Fuzz(func(t *testing.T, stream []byte, seed int64) {
		ref := bytes.NewReader(stream)
		fr := frameReader{r: &chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(seed))}}
		for {
			sized := ref.Len() >= 4
			var size uint32
			if sized {
				size = binary.LittleEndian.Uint32(stream[len(stream)-ref.Len():])
			}
			want, werr := ReadMsg(ref, msize)
			got, err := fr.next(msize)
			if sized && (size < 7 || size > msize) && frameErrKind(err) != "size" {
				t.Fatalf("size[4] %d against msize %d: %v, want a size error", size, msize, err)
			}
			if frameErrKind(err) != frameErrKind(werr) {
				t.Fatalf("frame reader: %v; reference: %v", err, werr)
			}
			if err != nil {
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame reader split a %d-byte body where the reference split %d bytes", len(got), len(want))
			}
		}
	})
}

// --- negotiated msize --------------------------------------------------

// TestServerEnforcesNegotiatedMsize: once Tversion settled on 512, a
// 600-byte Twrite is a framing violation and the server drops the
// connection, even though its own cap is far larger.
func TestServerEnforcesNegotiatedMsize(t *testing.T) {
	_, srv := startServer(t, Config{})
	r := rawDial(t, srv)
	r.send(&Fcall{Type: MsgTversion, Tag: NoTag, Msize: MinMsize, Version: Version})
	if resp := r.recv(); resp.Type != MsgRversion || resp.Msize != MinMsize {
		t.Fatalf("negotiation: got %s msize %d", MsgName(resp.Type), resp.Msize)
	}
	r.send(&Fcall{Type: MsgTattach, Tag: 1, Fid: 0, Afid: NoFid, Uname: "root"})
	if resp := r.recv(); resp.Type != MsgRattach {
		t.Fatalf("attach: got %s (%s)", MsgName(resp.Type), resp.Ename)
	}
	// Within msize the connection lives on (the write itself fails: fid 0
	// is not open).
	r.send(&Fcall{Type: MsgTwrite, Tag: 2, Fid: 0, Data: make([]byte, MinMsize-IOHeaderSize)})
	if resp := r.recv(); resp.Type != MsgRerror {
		t.Fatalf("in-bounds Twrite: got %s", MsgName(resp.Type))
	}
	r.send(&Fcall{Type: MsgTwrite, Tag: 3, Fid: 0, Data: make([]byte, 600)})
	r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := ReadMsg(r.nc, MaxMsize); err == nil {
		t.Fatal("server answered a frame larger than the negotiated msize")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the connection open after a frame larger than the negotiated msize")
	}
}

// TestClientEnforcesNegotiatedMsize: a server that negotiated 512 and then
// announces a 1 MiB response gets an error from rpc at once — the client
// neither allocates the megabyte nor waits for it to arrive.
func TestClientEnforcesNegotiatedMsize(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		body, err := ReadMsg(nc, MaxMsize)
		if err != nil {
			return
		}
		req, _ := Unmarshal(body)
		out, _ := Marshal(&Fcall{Type: MsgRversion, Tag: req.Tag, Msize: MinMsize, Version: Version})
		nc.Write(out)
		if _, err := ReadMsg(nc, MaxMsize); err != nil { // the Tread
			return
		}
		// size[4] = 1 MiB, type, tag — and never the body.
		nc.Write([]byte{0, 0, 0x10, 0, MsgRread, 1, 0})
		io.Copy(io.Discard, nc) // hold the conn open until the client gives up
	}()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if c.Msize() != MinMsize {
		t.Fatalf("negotiated msize %d, want %d", c.Msize(), MinMsize)
	}
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	f := &Fid{c: c, n: 1}
	_, err = f.Read(make([]byte, 100), 0)
	if err == nil {
		t.Fatal("client accepted a response larger than the negotiated msize")
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("client waited for the oversized body instead of refusing its size: %v", err)
	}
	if cap(c.fr.big) != 0 {
		t.Fatalf("client allocated %d bytes of scratch for a frame it must refuse", cap(c.fr.big))
	}
}

// TestClientWriteSplitsAtMsize: a Write larger than one Twrite can carry
// goes out as several, none above the negotiated msize (the server would
// drop the connection otherwise), and lands whole.
func TestClientWriteSplitsAtMsize(t *testing.T) {
	_, srv := startServer(t, Config{MaxMsize: MinMsize})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.WalkPath("srv/app/config/app.conf")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(ORdWr | OTrunc); err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("0123456789", 300))
	if n, err := f.Write(data, 0); err != nil || n != len(data) {
		t.Fatalf("Write: n=%d err=%v, want %d", n, err, len(data))
	}
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes (err %v), want the %d written", len(got), err, len(data))
	}
}

// --- partial walks ---------------------------------------------------------

// countConn counts the bytes a client reads off its connection.
type countConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// dialVersion connects a client that offers exactly version at Tversion
// and counts the bytes it reads.
func dialVersion(t *testing.T, srv *Server, version string) (*Client, *countConn) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countConn{Conn: nc}
	c := newClient(cc)
	t.Cleanup(func() { c.Close() })
	var resp Fcall
	if err := c.rpc(&Fcall{Type: MsgTversion, Tag: NoTag, Msize: DefaultMsize, Version: version}, &resp); err != nil || resp.Version != version {
		t.Fatalf("Tversion %q: got %q, %v", version, resp.Version, err)
	}
	c.trace = version != Version
	return c, cc
}

// TestWalkErrnoParity: a walk that fails past its first name is answered
// in one RPC by a partial Rwalk that binds no fid and sends no Rerror. On
// the dc dialects the Rwalk's errno[4] trailer carries the errno an
// in-process Lstat of the same path gets; on plain 9P2000 no trailer is on
// the wire and the walk reads ENOENT. A first-name failure is an Rerror
// with the exact errno on every dialect. A 20-name walk failing in its
// second Twalk returns the exact errno in two RPCs, and the first Twalk's
// fid, clunked without a Tclunk, is gone once the next walk has carried it.
func TestWalkErrnoParity(t *testing.T) {
	sys, srv := startServer(t, Config{})
	root := sys.Start(dircache.RootCreds())
	mustMkdirAll(t, root, "/srv/private", 0o700)
	mustWrite(t, root, "/srv/private/key", "k")
	if err := root.Symlink("/srv/app", "/srv/lnk"); err != nil {
		t.Fatal(err)
	}
	deep := []string{"srv", "deep"}
	for i := 1; i <= 15; i++ {
		deep = append(deep, fmt.Sprintf("d%02d", i))
	}
	mustMkdirAll(t, root, "/"+strings.Join(deep, "/"), 0o755)
	deep = append(deep, "leaf")
	mustWrite(t, root, "/"+strings.Join(deep, "/"), "x")
	deep = append(deep, "a", "b")
	root.Exit()
	user := sys.Start(dircache.UserCreds(1000))
	defer user.Exit()

	rows := []struct {
		name, path string
		qids       int // names resolved before the failing one; -1: the first name fails
	}{
		{"missing last name", "srv/app/nope", 2},
		{"missing middle name", "srv/nope/config/app.conf", 1},
		{"regular file as a directory", "srv/app/config/app.conf/x", 3},
		{"0700 directory", "srv/private/key", 2},
		{"missing name past a symlinked directory", "srv/lnk/nope", 1},
		{"first name", "nope/srv", -1},
	}
	for _, version := range []string{VersionTrace, VersionShard, Version} {
		c, cc := dialVersion(t, srv, version)
		fid, err := c.Attach("1000", "")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			_, lerr := user.Lstat("/" + r.path)
			if lerr == nil {
				t.Fatalf("%s: in-process Lstat(/%s) succeeded", r.name, r.path)
			}
			want := fsapi.ToErrno(lerr)
			if r.qids >= 0 && version == Version {
				want = fsapi.ENOENT
			}
			st, rpcs, read := srv.Stats(), c.RPCs(), cc.n.Load()
			if _, err := fid.WalkPath(r.path); !errors.Is(err, want) {
				t.Fatalf("%s, %s: walk got %v, want %v", version, r.name, err, want)
			}
			if n := c.RPCs() - rpcs; n != 1 {
				t.Fatalf("%s, %s: %d RPCs, want 1", version, r.name, n)
			}
			after := srv.Stats()
			rerrors := int64(0)
			if r.qids < 0 {
				rerrors = 1
			}
			if after.FidsLive != st.FidsLive || after.ErrorsSent-st.ErrorsSent != rerrors {
				t.Fatalf("%s, %s: FidsLive %d → %d, ErrorsSent +%d (want unchanged, +%d)",
					version, r.name, st.FidsLive, after.FidsLive, after.ErrorsSent-st.ErrorsSent, rerrors)
			}
			if r.qids < 0 {
				continue
			}
			frame := int64(4 + 1 + 2 + 2 + 13*r.qids) // size type tag nwqid qid*
			if version != Version {
				frame += 4 // errno[4]
			}
			if got := cc.n.Load() - read; got != frame {
				t.Fatalf("%s, %s: the Rwalk is %d bytes, want %d", version, r.name, got, frame)
			}
		}
	}

	c, _ := dialVersion(t, srv, VersionTrace)
	fid, err := c.Attach("1000", "")
	if err != nil {
		t.Fatal(err)
	}
	_, lerr := user.Lstat("/" + strings.Join(deep, "/"))
	want := fsapi.ToErrno(lerr)
	st, rpcs := srv.Stats(), c.RPCs()
	if _, err := fid.Walk(deep...); want != fsapi.ENOTDIR || !errors.Is(err, want) {
		t.Fatalf("20-name walk: got %v, want %v", err, want)
	}
	if n := c.RPCs() - rpcs; n != 2 {
		t.Fatalf("20-name walk took %d RPCs, want 2 (Twalk, Twalk)", n)
	}
	if after := srv.Stats().FidsLive; after != st.FidsLive+1 {
		t.Fatalf("20-name walk: FidsLive %d → %d, want the intermediate fid pending", st.FidsLive, after)
	}
	if _, err := fid.Walk("nope"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("walk carrying the pending clunk: %v", err)
	}
	if after := srv.Stats().FidsLive; after != st.FidsLive {
		t.Fatalf("after one more walk: FidsLive %d, want %d", after, st.FidsLive)
	}
}

// --- deferred clunks --------------------------------------------------------

// TestDeferredClunk: on a dc dialect the Clunk of a never-opened fid, or of
// a directory opened without ORCLOSE, sends nothing and the next Twalk
// carries it to the server; on plain 9P2000, for an opened file, for every
// ORCLOSE fid, and for a clunk finding the pending list full, Clunk is a
// Tclunk that has taken effect when it returns. On both, a clunked Fid
// answers EBADF without asking.
func TestDeferredClunk(t *testing.T) {
	sys, srv := startServer(t, Config{})
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	fids := func() int64 { return srv.Stats().FidsLive }
	for _, version := range []string{VersionTrace, Version} {
		c, _ := dialVersion(t, srv, version)
		root, err := c.Attach("root", "")
		if err != nil {
			t.Fatal(err)
		}
		// pick is dcv on the dc dialect and plain on 9P2000.
		pick := func(dcv, plain int64) int64 {
			if version != Version {
				return dcv
			}
			return plain
		}
		walk := func(t *testing.T, path string) *Fid {
			t.Helper()
			f, err := root.WalkPath(path)
			if err != nil {
				t.Fatalf("walk %s: %v", path, err)
			}
			return f
		}
		// carry sends a walk that binds no fid, with whatever clunks are
		// pending.
		carry := func(t *testing.T) {
			t.Helper()
			if _, err := root.Walk("nope"); !errors.Is(err, fsapi.ENOENT) {
				t.Fatalf("walk to a missing name: %v", err)
			}
		}
		clunk := func(t *testing.T, f *Fid) {
			t.Helper()
			if err := f.Clunk(); err != nil {
				t.Fatalf("Clunk: %v", err)
			}
		}
		rows := []struct {
			name string
			run  func(t *testing.T)
		}{
			{"warm walk+stat+clunk", func(t *testing.T) {
				clunk(t, walk(t, "srv/app/config/app.conf"))
				carry(t)
				base, rpcs := fids(), c.RPCs()
				f := walk(t, "srv/app/config/app.conf")
				if _, err := f.Stat(); err != nil {
					t.Fatalf("Stat: %v", err)
				}
				clunk(t, f)
				if n, want := c.RPCs()-rpcs, pick(2, 3); n != want {
					t.Fatalf("%d RPCs, want %d", n, want)
				}
				if n, want := fids()-base, pick(1, 0); n != want {
					t.Fatalf("FidsLive +%d after Clunk, want +%d", n, want)
				}
				carry(t)
				if n := fids(); n != base {
					t.Fatalf("FidsLive %d after the next walk, want %d", n, base)
				}
			}},
			{"open+readdir+clunk", func(t *testing.T) {
				carry(t)
				base := fids()
				f := walk(t, "srv/app")
				if err := f.Open(ORead); err != nil {
					t.Fatalf("Open: %v", err)
				}
				if ents, err := f.ReadDir(); err != nil || len(ents) != 2 {
					t.Fatalf("ReadDir: %d entries, %v", len(ents), err)
				}
				rpcs := c.RPCs()
				clunk(t, f)
				if n, want := c.RPCs()-rpcs, pick(0, 1); n != want {
					t.Fatalf("Clunk of an open directory sent %d RPCs, want %d", n, want)
				}
				if n, want := fids()-base, pick(1, 0); n != want {
					t.Fatalf("FidsLive +%d once Clunk returned, want +%d", n, want)
				}
				carry(t)
				if n := fids(); n != base {
					t.Fatalf("FidsLive %d after the next walk, want %d", n, base)
				}
			}},
			{"open file ORead", func(t *testing.T) {
				carry(t)
				base := fids()
				f := walk(t, "srv/app/config/app.conf")
				if err := f.Open(ORead); err != nil {
					t.Fatalf("Open: %v", err)
				}
				rpcs := c.RPCs()
				clunk(t, f)
				if n := c.RPCs() - rpcs; n != 1 {
					t.Fatalf("Clunk of an open file sent %d RPCs, want 1", n)
				}
				if n := fids(); n != base {
					t.Fatalf("FidsLive %d once Clunk returned, want %d", n, base)
				}
			}},
			{"open directory ORCLOSE", func(t *testing.T) {
				dir := "/srv/app/rcdir-" + version
				if err := p.Mkdir(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				f := walk(t, dir[1:])
				if err := f.Open(ORead | ORClose); err != nil {
					t.Fatalf("Open: %v", err)
				}
				rpcs := c.RPCs()
				clunk(t, f)
				if n := c.RPCs() - rpcs; n != 1 {
					t.Fatalf("Clunk of an ORCLOSE directory sent %d RPCs, want 1", n)
				}
				if _, err := p.Lstat(dir); !errors.Is(err, fsapi.ENOENT) {
					t.Fatalf("ORCLOSE directory once Clunk returned: %v, want ENOENT", err)
				}
			}},
			{"create ORCLOSE", func(t *testing.T) {
				name := "rc-" + version
				f := walk(t, "srv/app")
				if err := f.Create(name, 0o644, OWrite|ORClose); err != nil {
					t.Fatalf("Create: %v", err)
				}
				if _, err := p.Lstat("/srv/app/" + name); err != nil {
					t.Fatalf("created file: %v", err)
				}
				clunk(t, f)
				if _, err := p.Lstat("/srv/app/" + name); !errors.Is(err, fsapi.ENOENT) {
					t.Fatalf("ORCLOSE file once Clunk returned: %v, want ENOENT", err)
				}
			}},
			{"17th pending clunk", func(t *testing.T) {
				carry(t)
				base := fids()
				var fs []*Fid
				for range MaxWalkNames + 1 {
					fs = append(fs, walk(t, "srv/app"))
				}
				rpcs := c.RPCs()
				for _, f := range fs {
					clunk(t, f)
				}
				if n, want := c.RPCs()-rpcs, pick(1, MaxWalkNames+1); n != want {
					t.Fatalf("%d clunks sent %d RPCs, want %d", len(fs), n, want)
				}
				if n, want := fids()-base, pick(MaxWalkNames, 0); n != want {
					t.Fatalf("FidsLive +%d after the clunks, want +%d", n, want)
				}
				carry(t)
				if n := fids(); n != base {
					t.Fatalf("FidsLive %d after the next walk, want %d", n, base)
				}
			}},
			{"use after clunk", func(t *testing.T) {
				f := walk(t, "srv/app/config/app.conf")
				clunk(t, f)
				rpcs := c.RPCs()
				if _, err := f.Stat(); !errors.Is(err, fsapi.EBADF) {
					t.Fatalf("Stat of a clunked fid: %v, want EBADF", err)
				}
				if _, err := f.Walk(); !errors.Is(err, fsapi.EBADF) {
					t.Fatalf("Walk from a clunked fid: %v, want EBADF", err)
				}
				if err := f.Clunk(); !errors.Is(err, fsapi.EBADF) {
					t.Fatalf("second Clunk: %v, want EBADF", err)
				}
				if n := c.RPCs() - rpcs; n != 0 {
					t.Fatalf("a clunked fid sent %d RPCs", n)
				}
			}},
		}
		for _, r := range rows {
			t.Run(version+"/"+r.name, r.run)
		}
	}
}

// TestHostileClunkList sends Twalk clunk lists by hand: an unknown fid is
// skipped without an Rerror; the walk's own source fid is clunked before
// the walk, which then fails with EBADF; an open ORCLOSE fid's file is
// unlinked, as Tclunk would; a list shorter than its nclunk declares does
// not decode, so the server drops the connection; and a plain-9P2000
// connection ignores the list.
func TestHostileClunkList(t *testing.T) {
	sys, srv := startServer(t, Config{})
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	walk := func(fid, newfid uint32, clunks ...uint32) *Fcall {
		req := &Fcall{Type: MsgTwalk, Tag: 5, Fid: fid, Newfid: newfid, Wname: []string{"srv"}}
		req.Nclunk = uint8(copy(req.Clunks[:], clunks))
		return req
	}
	expect := func(r *rawConn, what string, typ uint8) *Fcall {
		t.Helper()
		resp := r.recv()
		if resp.Type != typ {
			t.Fatalf("%s: got %s (%s), want %s", what, MsgName(resp.Type), resp.Ename, MsgName(typ))
		}
		return resp
	}

	r := rawDial(t, srv)
	r.handshake(VersionTrace) // fid 0 at "/", fid 1 at app.conf
	errs := srv.Stats().ErrorsSent
	r.send(walk(0, 2, 999))
	expect(r, "walk with an unknown fid in its list", MsgRwalk)
	if n := srv.Stats().ErrorsSent - errs; n != 0 {
		t.Fatalf("an unknown fid in the list sent %d Rerrors", n)
	}

	r.send(walk(2, 3, 2))
	if resp := expect(r, "walk whose list names its source fid", MsgRerror); !errors.Is(EnameErrno(resp.Ename), fsapi.EBADF) {
		t.Fatalf("walk whose list names its source fid: %q, want EBADF", resp.Ename)
	}
	r.send(&Fcall{Type: MsgTstat, Tag: 6, Fid: 2})
	expect(r, "stat of the fid the list named", MsgRerror)

	r.send(&Fcall{Type: MsgTwalk, Tag: 7, Fid: 0, Newfid: 4, Wname: []string{"srv", "app"}})
	expect(r, "walk to srv/app", MsgRwalk)
	r.send(&Fcall{Type: MsgTcreate, Tag: 8, Fid: 4, Name: "rc", Perm: 0o644, Mode: OWrite | ORClose})
	expect(r, "ORCLOSE create", MsgRcreate)
	if _, err := p.Lstat("/srv/app/rc"); err != nil {
		t.Fatalf("created file: %v", err)
	}
	r.send(walk(0, 5, 4))
	expect(r, "walk whose list names an open ORCLOSE fid", MsgRwalk)
	if _, err := p.Lstat("/srv/app/rc"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("ORCLOSE file after the walk clunked its fid: %v, want ENOENT", err)
	}

	full, err := Marshal(walk(0, 6, 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	short := full[:len(full)-4] // nclunk says 2, one fid follows
	if _, err := Unmarshal(short[4:]); err == nil {
		t.Fatal("a clunk list shorter than its nclunk decoded")
	}
	binary.LittleEndian.PutUint32(short, uint32(len(short)))
	if _, err := r.nc.Write(short); err != nil {
		t.Fatal(err)
	}
	r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := ReadMsg(r.nc, MaxMsize); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server kept the connection after a short clunk list: %v", err)
	}

	plain := rawDial(t, srv)
	plain.handshake(Version)
	plain.send(walk(0, 2, 1))
	expect(plain, "plain 9P2000 walk with a clunk list", MsgRwalk)
	plain.send(&Fcall{Type: MsgTstat, Tag: 6, Fid: 1})
	expect(plain, "stat of the fid a plain 9P2000 list named", MsgRstat)
}

// TestFidCounterSkipsNoFid: the client's fid counter wraps past NoFid,
// which rpc answers EBADF unsent and a clunk could never free, so the two
// walks either side of the wrap both get fids that stat and clunk.
func TestFidCounterSkipsNoFid(t *testing.T) {
	_, srv := startServer(t, Config{})
	for _, version := range []string{VersionTrace, Version} {
		c, _ := dialVersion(t, srv, version)
		c.nextFid = NoFid - 2
		root, err := c.Attach("root", "")
		if err != nil {
			t.Fatal(err)
		}
		base := srv.Stats().FidsLive
		var got []uint32
		for range 2 {
			f, err := root.WalkPath("srv/app")
			if err != nil {
				t.Fatalf("%s: walk %d: %v", version, len(got), err)
			}
			got = append(got, f.n)
			if _, err := f.Stat(); err != nil {
				t.Fatalf("%s: Stat of fid %d: %v", version, f.n, err)
			}
			if err := f.Clunk(); err != nil {
				t.Fatalf("%s: Clunk of fid %d: %v", version, got[len(got)-1], err)
			}
		}
		if got[0] != NoFid-1 || got[1] != 0 {
			t.Fatalf("%s: walks got fids %v, want [%d 0]", version, got, NoFid-1)
		}
		if _, err := root.Walk("nope"); !errors.Is(err, fsapi.ENOENT) {
			t.Fatalf("%s: walk carrying the pending clunks: %v", version, err)
		}
		if n := srv.Stats().FidsLive; n != base {
			t.Fatalf("%s: FidsLive %d after the clunks, want %d", version, n, base)
		}
	}
}

// --- directory listings ------------------------------------------------------

// TestReadDirRoundTrips: Walk + Open + ReadDir + Clunk lists exactly what an
// in-process ReadDir + Lstat sees, in 3 RPCs on the dc dialects (the last
// Rread is marked eof and the clunk rides the next Twalk) and 5 on plain
// 9P2000, whose Rread frames carry no trailer. A listing larger than one
// read at MinMsize is marked eof on its last Rread only; a read too small
// for the next record is EINVAL, not an empty (end-of-directory) Rread. An
// open directory fid pins nothing: another connection removes the
// directory under it, and the fid's next listing reads ENOENT.
func TestReadDirRoundTrips(t *testing.T) {
	sys, srv := startServer(t, Config{})
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	mustMkdirAll(t, p, "/srv/list/sub", 0o750)
	mustWrite(t, p, "/srv/list/a.txt", "alpha")
	mustWrite(t, p, "/srv/list/owned", "b")
	if err := p.Chown("/srv/list/owned", 1000, 2000); err != nil {
		t.Fatal(err)
	}
	if err := p.Symlink("/srv/app", "/srv/list/lnk"); err != nil {
		t.Fatal(err)
	}
	mustMkdirAll(t, p, "/srv/big", 0o755)
	for i := range 40 {
		mustWrite(t, p, fmt.Sprintf("/srv/big/file-%02d", i), "x")
	}
	inProcess := func(dir string) []Stat {
		ents, err := p.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var want []Stat
		for _, e := range ents {
			fi, err := p.Lstat(dir + "/" + e.Name)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, statOf(e.Name, fi))
		}
		return want
	}

	for _, version := range []string{VersionTrace, VersionShard, Version} {
		c, _ := dialVersion(t, srv, version)
		root, err := c.Attach("root", "")
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{"srv/list", "srv/big"} {
			rpcs := c.RPCs()
			f, err := root.WalkPath(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Open(ORead); err != nil {
				t.Fatalf("%s: Open %s: %v", version, dir, err)
			}
			got, err := f.ReadDir()
			if err != nil {
				t.Fatalf("%s: ReadDir %s: %v", version, dir, err)
			}
			if err := f.Clunk(); err != nil {
				t.Fatal(err)
			}
			if want := inProcess("/" + dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s lists\n  %+v\nin process\n  %+v", version, dir, got, want)
			}
			want := int64(3)
			if version == Version {
				want = 5
			}
			if n := c.RPCs() - rpcs; n != want {
				t.Fatalf("%s: listing %s took %d RPCs, want %d", version, dir, n, want)
			}
		}
	}

	// open walks fid 1 of a raw connection at MinMsize to names and opens it.
	open := func(version string, names ...string) *rawConn {
		r := rawDial(t, srv)
		for _, req := range []*Fcall{
			{Type: MsgTversion, Tag: NoTag, Msize: MinMsize, Version: version},
			{Type: MsgTattach, Tag: 1, Fid: 0, Afid: NoFid, Uname: "root"},
			{Type: MsgTwalk, Tag: 2, Fid: 0, Newfid: 1, Wname: names},
			{Type: MsgTopen, Tag: 3, Fid: 1, Mode: ORead},
		} {
			r.send(req)
			if resp := r.recv(); resp.Type != req.Type+1 {
				t.Fatalf("%s: %s got %s (%s)", version, MsgName(req.Type), MsgName(resp.Type), resp.Ename)
			}
		}
		return r
	}
	for _, version := range []string{VersionTrace, Version} {
		for _, names := range [][]string{{"srv", "big"}, {"srv", "app", "config", "app.conf"}} {
			r := open(version, names...)
			var data []byte
			reads := 0
			for {
				// A fresh tag each: the server frees one only after answering.
				r.send(&Fcall{Type: MsgTread, Tag: uint16(4 + reads), Fid: 1, Offset: uint64(len(data)), Count: MinMsize - IOHeaderSize})
				resp, body := r.recvFrame()
				if resp.Type != MsgRread {
					t.Fatalf("%s: Tread: got %s (%s)", version, MsgName(resp.Type), resp.Ename)
				}
				reads++
				trailer := 0
				if resp.EOF {
					trailer = 1
				}
				if frame := 4 + len(body); frame != 11+len(resp.Data)+trailer {
					t.Fatalf("%s: a %d-byte Rread with eof=%v is a %d-byte frame", version, len(resp.Data), resp.EOF, frame)
				}
				data = append(data, resp.Data...)
				if version == Version && resp.EOF {
					t.Fatalf("plain 9P2000: Rread %d marked eof", reads)
				}
				if len(resp.Data) == 0 || resp.EOF {
					break
				}
			}
			wantReads := 1
			if version == Version {
				wantReads = 2 // the last one empty
			}
			if names[1] == "big" {
				sts, err := UnmarshalStats(data)
				if err != nil || !reflect.DeepEqual(sts, inProcess("/srv/big")) {
					t.Fatalf("%s: the listing read at MinMsize differs from in process (%v)", version, err)
				}
				if reads < 3 {
					t.Fatalf("%s: a %d-byte listing took %d reads at msize %d", version, len(data), reads, MinMsize)
				}
			} else if reads != wantReads || string(data) != "listen=:9099\n" {
				t.Fatalf("%s: file read %q in %d Treads, want %d", version, data, reads, wantReads)
			}
		}

		r := open(version, "srv", "big")
		r.send(&Fcall{Type: MsgTread, Tag: 4, Fid: 1, Count: 16})
		if resp := r.recv(); resp.Type != MsgRerror || !errors.Is(EnameErrno(resp.Ename), fsapi.EINVAL) {
			t.Fatalf("%s: a 16-byte read of a directory: %s %q, want EINVAL", version, MsgName(resp.Type), resp.Ename)
		}
	}

	mustMkdirAll(t, p, "/srv/gone", 0o755)
	mustWrite(t, p, "/srv/gone/x", "x")
	c, _ := dialVersion(t, srv, VersionTrace)
	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := root.WalkPath("srv/gone")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Open(ORead); err != nil {
		t.Fatal(err)
	}
	if ents, err := d.ReadDir(); err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %d entries, %v", len(ents), err)
	}
	other, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	oroot, err := other.Attach("root", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"srv/gone/x", "srv/gone"} {
		f, err := oroot.WalkPath(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Remove(); err != nil {
			t.Fatalf("another connection's remove of %s while a fid has the directory open: %v", path, err)
		}
	}
	if _, err := d.ReadDir(); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("listing a removed directory again: %v, want ENOENT", err)
	}
	if err := d.Clunk(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedRewinds sends reads of one open directory fid at offset 0
// without waiting: each is a rewind that lists the path again while the
// Rread before it may still be encoding (its Data is the listing), so a
// listing must not reuse the buffer an earlier Rread points into (run
// with -race).
func TestPipelinedRewinds(t *testing.T) {
	_, srv := startServer(t, Config{})
	r := rawDial(t, srv)
	r.handshake(VersionTrace)
	r.send(&Fcall{Type: MsgTwalk, Tag: 3, Fid: 0, Newfid: 2, Wname: []string{"srv", "app"}})
	if resp := r.recv(); resp.Type != MsgRwalk {
		t.Fatalf("walk: got %s (%s)", MsgName(resp.Type), resp.Ename)
	}
	r.send(&Fcall{Type: MsgTopen, Tag: 4, Fid: 2, Mode: ORead})
	if resp := r.recv(); resp.Type != MsgRopen {
		t.Fatalf("open: got %s (%s)", MsgName(resp.Type), resp.Ename)
	}
	const reads = 64
	for i := range reads {
		r.send(&Fcall{Type: MsgTread, Tag: uint16(10 + i), Fid: 2, Count: DefaultMsize - IOHeaderSize})
	}
	for range reads {
		resp := r.recv()
		sts, err := UnmarshalStats(resp.Data)
		if resp.Type != MsgRread || err != nil || len(sts) != 2 || !resp.EOF {
			t.Fatalf("pipelined rewind: %s with %d entries (%v), eof=%v", MsgName(resp.Type), len(sts), err, resp.EOF)
		}
	}
}

// --- allocation budget ----------------------------------------------------

// TestWireAllocBudget holds the wire path to its allocation budget, over
// loopback with both ends in this process, counted as the process-wide
// malloc delta over 20 k ops: a warm 4-name Walk + Stat + Clunk, a
// directory listing (Walk + Open + ReadDir + Clunk), and a walk to a
// missing name. They measure 10, 28 and 9 mallocs per op on the dot plus a
// few stray process-wide mallocs per run, so each budget is that count
// plus one. The clunk list costs none: the stat row was 11 while its
// Tclunk was a round trip of its own. The readdir row was 35 (3.9 KB)
// while a listing ended in an empty Tread and built a Stat and a
// MarshalStat slice per entry; it is 28 (2.8 KB).
func TestWireAllocBudget(t *testing.T) {
	sys, srv := startServer(t, Config{})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root, err := c.Attach("1000", "")
	if err != nil {
		t.Fatal(err)
	}
	walk := func(names ...string) *Fid {
		f, err := root.Walk(names...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	rows := []struct {
		name   string
		budget float64
		op     func()
	}{
		{"warm wire walk+stat+clunk", 11, func() {
			f := walk("srv", "app", "config", "app.conf")
			if _, err := f.Stat(); err != nil {
				t.Fatal(err)
			}
			if err := f.Clunk(); err != nil {
				t.Fatal(err)
			}
		}},
		{"wire readdir", 29, func() {
			f := walk("srv", "app")
			if err := f.Open(ORead); err != nil {
				t.Fatal(err)
			}
			if ents, err := f.ReadDir(); err != nil || len(ents) != 2 {
				t.Fatalf("ReadDir: %d entries, %v", len(ents), err)
			}
			if err := f.Clunk(); err != nil {
				t.Fatal(err)
			}
		}},
		{"wire walk to a missing name", 10, func() {
			if _, err := root.Walk("srv", "app", "nope"); !errors.Is(err, fsapi.ENOENT) {
				t.Fatalf("missing name: %v", err)
			}
		}},
	}
	for _, r := range rows {
		for i := 0; i < 1000; i++ {
			r.op()
		}
		const n = 20000
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for i := 0; i < n; i++ {
			r.op()
		}
		runtime.ReadMemStats(&b)
		perOp := float64(b.Mallocs-a.Mallocs) / n
		t.Logf("%.2f mallocs, %.0f bytes per %s", perOp, float64(b.TotalAlloc-a.TotalAlloc)/n, r.name)
		if perOp > r.budget {
			t.Fatalf("%.2f mallocs per %s, budget %.0f", perOp, r.name, r.budget)
		}
	}

	p := sys.Start(dircache.UserCreds(1000))
	defer p.Exit()
	p.Stat("/srv/app/config/app.conf")
	if avg := testing.AllocsPerRun(1000, func() { p.Stat("/srv/app/config/app.conf") }); avg != 0 {
		t.Fatalf("warm in-process Stat allocates %.1f, want 0", avg)
	}
}

// --- worker lifetime --------------------------------------------------------

// liveWorkers counts resident worker goroutines in the process.
func liveWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "ninep.(*conn).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWorkersAreResidentAndBounded: a connection that never has two tags
// in flight runs on exactly one worker however many requests it sends; a
// pipelined burst grows the pool to the burst (never past maxInflight);
// and when 200 such connections close, every worker and reader exits and
// Server.Close returns.
func TestWorkersAreResidentAndBounded(t *testing.T) {
	_, srv := startServer(t, Config{})
	baseline := runtime.NumGoroutine()

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	root, err := c.Attach("root", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		f, err := root.WalkPath("srv/app/config/app.conf")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Stat(); err != nil {
			t.Fatal(err)
		}
		if err := f.Clunk(); err != nil {
			t.Fatal(err)
		}
	}
	if n := liveWorkers(); n != 1 {
		t.Fatalf("a closed-loop connection has %d workers after 6000 RPCs, want 1", n)
	}
	c.Close()
	waitFor(t, "the closed-loop connection's goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })

	const conns, burst = 200, maxInflight
	block := make(chan struct{})
	var stalled atomic.Int32
	stall := func(f *Fcall) {
		if f.Type == MsgTstat && f.Tag >= 100 {
			stalled.Add(1)
			<-block
		}
	}
	srv.testStall.Store(&stall)
	raws := make([]*rawConn, conns)
	for i := range raws {
		raws[i] = rawDial(t, srv)
		raws[i].handshake(Version)
		for k := 0; k < burst; k++ {
			raws[i].send(&Fcall{Type: MsgTstat, Tag: uint16(100 + k), Fid: 1})
		}
		// One more than the pool runs at once: it waits its turn.
		raws[i].send(&Fcall{Type: MsgTstat, Tag: 99, Fid: 1})
	}
	waitFor(t, "every burst to be running", func() bool { return stalled.Load() == conns*burst })
	if n := liveWorkers(); n != conns*burst {
		t.Fatalf("%d connections with %d stalled tags each run %d workers, want %d", conns, burst, n, conns*burst)
	}
	close(block)
	var wg sync.WaitGroup
	for _, r := range raws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < burst+1; k++ {
				r.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
				body, err := ReadMsg(r.nc, MaxMsize)
				if err != nil {
					t.Errorf("reading response %d: %v", k, err)
					return
				}
				if f, err := Unmarshal(body); err != nil || f.Type != MsgRstat {
					t.Errorf("response %d: %v, %+v", k, err, f)
					return
				}
			}
			r.nc.Close()
		}()
	}
	wg.Wait()
	waitFor(t, "all goroutines of the closed connections to exit", func() bool { return runtime.NumGoroutine() <= baseline })

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close did not return")
	}
	if n := liveWorkers(); n != 0 {
		t.Fatalf("%d workers outlived Server.Close", n)
	}
}
