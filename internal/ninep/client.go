package ninep

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dircache/internal/coherence"
	"dircache/internal/fsapi"
	"dircache/internal/telemetry"
)

// Client is a minimal 9P2000 client for tests, smoke checks, the
// connstorm benchmark, and the sharded tier's wire leg: one connection,
// synchronous RPCs, fids allocated by a counter. An internal mutex
// serializes RPCs, so several goroutines may share one Client (a shard
// router interleaving walks with journal polls); for throughput work
// drive one Client per goroutine (that is the point of a connection
// storm).
type Client struct {
	nc      net.Conn
	fr      frameReader // response frames (under mu)
	wbuf    []byte      // request encode buffer (under mu)
	msize   uint32
	tag     uint16
	nextFid uint32
	rpcs    atomic.Int64

	mu sync.Mutex // serializes rpc (tag allocation + write + read)
	// pending[:npending] (under mu) are clunked fids the next Twalk carries.
	pending  [MaxWalkNames]uint32
	npending uint8
	// taken (under mu) holds every fid handed out and not yet released to
	// the server, so a wrapped counter skips the ones still in use.
	taken map[uint32]bool

	dc  bool                 // server negotiated the dc extension
	tel *telemetry.Telemetry // client-side span sink (SetTelemetry)
}

// Dial connects to a dcserve address and negotiates the protocol
// version, offering the dc extension. A stock 9P2000 server answers
// "9P2000" and the client runs without the extension's trailers and
// messages.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newClient(nc)
	var resp Fcall
	if err := c.rpc(&Fcall{Type: MsgTversion, Tag: NoTag, Msize: DefaultMsize, Version: VersionDC}, &resp); err != nil {
		nc.Close()
		return nil, err
	}
	if resp.Msize < MinMsize || resp.Msize > DefaultMsize {
		nc.Close()
		return nil, fmt.Errorf("server negotiated msize %d, offered %d", resp.Msize, DefaultMsize)
	}
	switch resp.Version {
	case VersionDC:
		c.dc = true
	case Version:
		// plain 9P2000 peer: fall back, never send a trailer
	default:
		nc.Close()
		return nil, fmt.Errorf("server speaks %q, want %q", resp.Version, Version)
	}
	c.msize = resp.Msize
	return c, nil
}

// newClient wraps an established connection; until Tversion settles the
// msize it is the one the client offers.
func newClient(nc net.Conn) *Client {
	return &Client{nc: nc, fr: frameReader{r: nc}, msize: DefaultMsize, taken: map[uint32]bool{}}
}

// SetTelemetry attaches a span sink: Walk/Open/Stat RPCs then open
// client-origin spans (subject to the sink's sampling rate) carrying a
// wire trace id the server's span stitches to — when the server
// negotiated dc. Pass nil to detach.
func (c *Client) SetTelemetry(tel *telemetry.Telemetry) { c.tel = tel }

// Traced reports whether the server negotiated the dc extension.
func (c *Client) Traced() bool { return c.dc }

// startSpan opens a client RPC span and allocates the wire trace id it
// carries (span.RemoteID). Nil when tracing is off or unsampled.
func (c *Client) startSpan(op string) (*telemetry.WalkTrace, time.Time) {
	if !c.dc || !c.tel.On() || !c.tel.Sampled() {
		return nil, time.Time{}
	}
	wid := c.tel.NextTraceID()
	return c.tel.StartSpan("client", op, "", wid), time.Now()
}

// finishSpan completes a client span opened by startSpan.
func (c *Client) finishSpan(tr *telemetry.WalkTrace, err error, t0 time.Time) {
	if tr == nil {
		return
	}
	c.tel.FinishSpan(tr, err, time.Since(t0))
}

// Close drops the connection (the server clunks all fids).
func (c *Client) Close() error { return c.nc.Close() }

// RPCs reports how many requests this client has sent.
func (c *Client) RPCs() int64 { return c.rpcs.Load() }

// Msize reports the negotiated message size.
func (c *Client) Msize() uint32 { return c.msize }

// rpc sends one request and decodes its response into resp, mapping
// Rerror back into an fsapi.Errno so errors.Is works across the wire. A
// response frame larger than the negotiated msize is an error. The mutex
// makes the Client shareable across goroutines; requests are not pipelined
// from this client (the server's dispatcher pipelines across clients).
func (c *Client) rpc(req, resp *Fcall) error {
	if req.Fid == NoFid { // a clunked Fid: answer what the server would
		return fsapi.EBADF
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rpcs.Add(1)
	if req.Tag == 0 && req.Type != MsgTversion {
		c.tag++
		if c.tag == NoTag {
			c.tag = 1
		}
		req.Tag = c.tag
	}
	if req.Type == MsgTwalk && c.npending > 0 {
		req.Clunks, req.Nclunk = c.pending, c.npending
		c.npending = 0
	}
	out, err := AppendMarshal(c.wbuf[:0], req)
	if err != nil {
		return err
	}
	c.wbuf = out
	if _, err := c.nc.Write(out); err != nil {
		return err
	}
	for _, n := range req.Clunks[:req.Nclunk] {
		delete(c.taken, n) // the clunk is on its way
	}
	body, err := c.fr.next(c.msize)
	if err != nil {
		return err
	}
	if err := resp.unmarshal(body); err != nil {
		return err
	}
	if resp.Tag != req.Tag {
		return fmt.Errorf("response tag %d for request tag %d", resp.Tag, req.Tag)
	}
	if resp.Type == MsgRerror {
		return EnameErrno(resp.Ename)
	}
	if resp.Type != req.Type+1 {
		return fmt.Errorf("response %s to request %s", MsgName(resp.Type), MsgName(req.Type))
	}
	return nil
}

// call is rpc for requests whose response carries nothing the caller
// reads.
func (c *Client) call(req *Fcall) error {
	var resp Fcall
	return c.rpc(req, &resp)
}

// Journal reads the server's coherence log from cursor, returning the
// records, the next cursor, and whether the cursor fell behind the log's
// retention (dc only; the first Tjournal starts the server's log). The
// RjournalMore flag is absorbed internally: truncated batches are
// re-polled until drained.
func (c *Client) Journal(cursor uint64) ([]coherence.Record, uint64, bool, error) {
	var out []coherence.Record
	fell := false
	for {
		var resp Fcall
		if err := c.rpc(&Fcall{Type: MsgTjournal, Offset: cursor}, &resp); err != nil {
			return out, cursor, fell, err
		}
		out = append(out, resp.Journal...)
		cursor = resp.Offset
		if resp.Mode&RjournalFellBehind != 0 {
			fell = true
		}
		if resp.Mode&RjournalMore == 0 {
			return out, cursor, fell, nil
		}
	}
}

// Shoot applies a coherence record — path and the note saying what a peer
// did to it — on the server ("" or "/" drops everything), returning the
// dentry count discarded (dc only).
func (c *Client) Shoot(path, note string) (int, error) {
	var resp Fcall
	if err := c.rpc(&Fcall{Type: MsgTshoot, Name: path, Aname: note}, &resp); err != nil {
		return 0, err
	}
	return int(resp.Count), nil
}

// Fid is a client-side fid handle.
type Fid struct {
	c       *Client
	n       uint32 // NoFid once clunked
	Qid     Qid
	iounit  uint32
	effects bool // opened on a file or with ORCLOSE, so clunking it has effects
}

// fid allocates a fid number from the counter. Once it wraps, a fid still
// taken is skipped — the attach fid, one whose clunk waits in pending —
// and so is NoFid: to rpc it is a clunked Fid, to Tattach "no auth fid".
func (c *Client) fid() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		n := c.nextFid
		c.nextFid++
		if !c.taken[n] && n != NoFid {
			c.taken[n] = true
			return n
		}
	}
}

// release returns fid n to the counter: the server never bound it, or
// has been sent its clunk.
func (c *Client) release(n uint32) {
	c.mu.Lock()
	delete(c.taken, n)
	c.mu.Unlock()
}

// Attach establishes a fid at the aname subtree root ("" = "/") under
// uname's credentials.
func (c *Client) Attach(uname, aname string) (*Fid, error) {
	n := c.fid()
	var resp Fcall
	if err := c.rpc(&Fcall{Type: MsgTattach, Fid: n, Afid: NoFid, Uname: uname, Aname: aname}, &resp); err != nil {
		c.release(n)
		return nil, err
	}
	return &Fid{c: c, n: n, Qid: resp.Qid}, nil
}

// Walk derives a new fid by walking names from f. Empty names clones f.
// A partial walk (fewer qids than names) binds no fid and fails, in the
// same RPC, with the errno the dc Rwalk carries in its trailing
// errno[4]; a stock 9P2000 peer's bare partial Rwalk reads as ENOENT, as
// Linux v9fs reads one.
func (f *Fid) Walk(names ...string) (*Fid, error) {
	span, t0 := f.c.startSpan("Twalk")
	if span != nil {
		span.Path = strings.Join(names, "/")
	}
	nf, err := f.walk(span, names)
	f.c.finishSpan(span, err, t0)
	return nf, err
}

func (f *Fid) walk(span *telemetry.WalkTrace, names []string) (*Fid, error) {
	c := f.c
	cur := f
	owned := false // cur is this walk's intermediate fid, clunked once the next batch left it
	for {
		batch := names
		if len(batch) > MaxWalkNames {
			batch = batch[:MaxWalkNames]
		}
		n := c.fid()
		req := &Fcall{Type: MsgTwalk, Fid: cur.n, Newfid: n, Wname: batch}
		if span != nil {
			req.TraceID = span.RemoteID
		}
		var resp Fcall
		r0 := time.Now()
		err := c.rpc(req, &resp)
		if span != nil {
			span.EventDur(telemetry.EvRPC, fmt.Sprintf("Twalk %d names", len(batch)), time.Since(r0))
		}
		if err == nil && len(resp.Wqid) < len(batch) {
			err = fsapi.ENOENT
			if c.dc && resp.Errno != 0 {
				err = fsapi.Errno(resp.Errno)
			}
		}
		if owned {
			cur.Clunk() // on the dc dialect it rides the next Twalk
		}
		if err != nil {
			c.release(n) // a failed walk binds no newfid
			return nil, err
		}
		q := f.Qid
		if len(resp.Wqid) > 0 {
			q = resp.Wqid[len(resp.Wqid)-1]
		}
		cur = &Fid{c: c, n: n, Qid: q}
		owned = true
		names = names[len(batch):]
		if len(names) == 0 {
			return cur, nil
		}
	}
}

// WalkPath walks a "/"-separated relative path from f.
func (f *Fid) WalkPath(path string) (*Fid, error) {
	var names []string
	for _, seg := range strings.Split(path, "/") {
		if seg != "" {
			names = append(names, seg)
		}
	}
	return f.Walk(names...)
}

// Open prepares the fid for I/O.
func (f *Fid) Open(mode uint8) error {
	span, t0 := f.c.startSpan("Topen")
	req := &Fcall{Type: MsgTopen, Fid: f.n, Mode: mode}
	if span != nil {
		req.TraceID = span.RemoteID
	}
	var resp Fcall
	err := f.c.rpc(req, &resp)
	span.EventDur(telemetry.EvRPC, "Topen", time.Since(t0))
	f.c.finishSpan(span, err, t0)
	if err != nil {
		return err
	}
	f.setOpen(mode, &resp)
	return nil
}

// Create makes name under the directory fid and leaves f open on it.
func (f *Fid) Create(name string, perm uint32, mode uint8) error {
	var resp Fcall
	if err := f.c.rpc(&Fcall{Type: MsgTcreate, Fid: f.n, Name: name, Perm: perm, Mode: mode}, &resp); err != nil {
		return err
	}
	f.setOpen(mode, &resp)
	return nil
}

// setOpen takes in an Ropen or Rcreate. The server keeps an open file for
// a file fid and only the path for a directory fid, so clunking it has
// effects unless it is a directory opened without ORCLOSE.
func (f *Fid) setOpen(mode uint8, resp *Fcall) {
	f.Qid = resp.Qid
	f.iounit = resp.Iounit
	f.effects = !resp.Qid.IsDir() || mode&ORClose != 0
}

// Read reads up to len(b) bytes at offset.
func (f *Fid) Read(b []byte, offset uint64) (int, error) {
	count := uint32(len(b))
	if max := f.c.msize - IOHeaderSize; count > max {
		count = max
	}
	var resp Fcall
	if err := f.c.rpc(&Fcall{Type: MsgTread, Fid: f.n, Offset: offset, Count: count}, &resp); err != nil {
		return 0, err
	}
	return copy(b, resp.Data), nil
}

// ReadAll drains the fid from offset 0 (file or directory payload) until
// an empty Rread or, on the dc dialect, one marked eof. Each Rread's Data
// is already a copy out of the frame, so the first becomes the result and
// later ones are appended to it.
func (f *Fid) ReadAll() ([]byte, error) {
	var out []byte
	var resp Fcall
	for {
		req := &Fcall{Type: MsgTread, Fid: f.n, Offset: uint64(len(out)), Count: f.c.msize - IOHeaderSize}
		if err := f.c.rpc(req, &resp); err != nil {
			return out, err
		}
		if out == nil {
			out = resp.Data
		} else {
			out = append(out, resp.Data...)
		}
		if len(resp.Data) == 0 || f.c.dc && resp.EOF {
			return out, nil
		}
	}
}

// Write writes b at offset, in as many Twrites as the negotiated msize
// needs, stopping at the first error or short write.
func (f *Fid) Write(b []byte, offset uint64) (int, error) {
	done := 0
	for {
		chunk := b[done:]
		if max := int(f.c.msize - IOHeaderSize); len(chunk) > max {
			chunk = chunk[:max]
		}
		var resp Fcall
		if err := f.c.rpc(&Fcall{Type: MsgTwrite, Fid: f.n, Offset: offset + uint64(done), Data: chunk}, &resp); err != nil {
			return done, err
		}
		done += int(resp.Count)
		if done == len(b) || int(resp.Count) < len(chunk) {
			return done, nil
		}
	}
}

// Stat fetches the fid's metadata.
func (f *Fid) Stat() (Stat, error) {
	span, t0 := f.c.startSpan("Tstat")
	req := &Fcall{Type: MsgTstat, Fid: f.n}
	if span != nil {
		req.TraceID = span.RemoteID
	}
	var resp Fcall
	err := f.c.rpc(req, &resp)
	span.EventDur(telemetry.EvRPC, "Tstat", time.Since(t0))
	f.c.finishSpan(span, err, t0)
	if err != nil {
		return Stat{}, err
	}
	return resp.Stat, nil
}

// Wstat applies a metadata change (start from EmptyStat and set fields).
func (f *Fid) Wstat(st Stat) error {
	return f.c.call(&Fcall{Type: MsgTwstat, Fid: f.n, Stat: st})
}

// ReadDir reads the whole directory through an open-for-read fid and
// parses the stat records.
func (f *Fid) ReadDir() ([]Stat, error) {
	buf, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	return UnmarshalStats(buf)
}

// Clunk releases the fid; using f afterwards fails with EBADF, unsent. On
// the dc dialect a never-opened fid, or a directory opened without
// ORCLOSE, is only a path to the server, so its clunk rides the next Twalk;
// an opened file, an ORCLOSE fid, every fid on plain 9P2000 and a clunk
// finding MaxWalkNames pending send a Tclunk.
func (f *Fid) Clunk() error {
	c, n := f.c, f.n
	f.n = NoFid
	c.mu.Lock()
	deferred := n != NoFid && c.dc && !f.effects && int(c.npending) < len(c.pending)
	if deferred {
		c.pending[c.npending] = n
		c.npending++
	}
	c.mu.Unlock()
	if deferred {
		return nil
	}
	defer c.release(n)
	return c.call(&Fcall{Type: MsgTclunk, Fid: n})
}

// Remove deletes the object and clunks the fid.
func (f *Fid) Remove() error {
	defer func() { f.c.release(f.n); f.n = NoFid }()
	return f.c.call(&Fcall{Type: MsgTremove, Fid: f.n})
}
