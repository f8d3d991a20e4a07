package ninep

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dircache"
	"dircache/internal/fsapi"
	"dircache/internal/telemetry"
)

// Config tunes a Server.
type Config struct {
	// Users maps unames to credentials. Unames not in the map fall back
	// to the default mapping: "root" → uid 0, a decimal uname → that uid
	// with matching gid and groups (UserCreds). Unames matching neither
	// are refused at attach.
	Users map[string]dircache.Creds
	// MaxMsize caps msize negotiation (0 = ninep.MaxMsize).
	MaxMsize uint32
	// PoolIdle bounds the idle Process pool (0 = 1024).
	PoolIdle int
}

// Server exports one dircache.System over 9P2000. Each accepted
// connection is served by its own reader goroutine, which hands requests
// to a bounded pool of resident per-connection workers: requests with
// distinct tags complete out of order (a slow Twalk does not block the
// Tstats queued behind it), responses are serialized on a write mutex,
// and Tflush answers only after the flushed request has settled.
// Connections proceed fully in parallel against the shared directory
// cache.
type Server struct {
	sys *dircache.System
	cfg Config
	lis net.Listener
	tel *telemetry.Telemetry

	pool *dircache.ProcessPool

	identMu sync.Mutex
	idents  map[string]*dircache.Identity // uname → shared identity (one PCC per principal)

	connWG  sync.WaitGroup
	connMu  sync.Mutex
	conns   map[*conn]struct{}
	closing atomic.Bool

	stats   serverStats
	userOps sync.Map // uname → *atomic.Int64: per-principal op counts

	// testStall is copied onto each new conn (see conn.testStall). Tests
	// store it (atomically — the accept loop is already running) before
	// dialing.
	testStall atomic.Pointer[func(*Fcall)]
}

// serverStats are the server's own counters, exported through the
// system's telemetry as source "ninep" and snapshotted by Stats.
type serverStats struct {
	connsTotal   atomic.Int64
	connsLive    atomic.Int64 // gauge
	attaches     atomic.Int64
	fidsLive     atomic.Int64 // gauge: entries across every connection's fid table
	ops          atomic.Int64
	walks        atomic.Int64
	walkNames    atomic.Int64
	errorsSent   atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// ServerStats is a snapshot of the server counters. ConnsLive and
// FidsLive are gauges; everything else is cumulative.
type ServerStats struct {
	ConnsTotal   int64
	ConnsLive    int64
	Attaches     int64
	FidsLive     int64
	Ops          int64
	Walks        int64
	WalkNames    int64
	ErrorsSent   int64
	BytesRead    int64
	BytesWritten int64
	PoolGets     int64
	PoolReuses   int64
	PoolIdle     int64 // Processes currently parked in the pool
}

// NewServer builds a server for sys (not yet listening).
func NewServer(sys *dircache.System, cfg Config) *Server {
	if cfg.MaxMsize == 0 || cfg.MaxMsize > MaxMsize {
		cfg.MaxMsize = MaxMsize
	}
	if cfg.MaxMsize < MinMsize {
		cfg.MaxMsize = MinMsize
	}
	s := &Server{
		sys:    sys,
		cfg:    cfg,
		pool:   sys.NewProcessPool(cfg.PoolIdle),
		idents: map[string]*dircache.Identity{},
		conns:  map[*conn]struct{}{},
		tel:    sys.Telemetry().Raw(),
	}
	if s.tel != nil {
		s.tel.RegisterStats("ninep", s.statCounters)
	}
	return s
}

// Serve listens on addr ("host:port"; ":0" for ephemeral) and serves
// until Close. It returns as soon as the listener is up.
func Serve(sys *dircache.System, addr string, cfg Config) (*Server, error) {
	s := NewServer(sys, cfg)
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lis = lis
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	ps := s.pool.Stats()
	return ServerStats{
		ConnsTotal:   s.stats.connsTotal.Load(),
		ConnsLive:    s.stats.connsLive.Load(),
		Attaches:     s.stats.attaches.Load(),
		FidsLive:     s.stats.fidsLive.Load(),
		Ops:          s.stats.ops.Load(),
		Walks:        s.stats.walks.Load(),
		WalkNames:    s.stats.walkNames.Load(),
		ErrorsSent:   s.stats.errorsSent.Load(),
		BytesRead:    s.stats.bytesRead.Load(),
		BytesWritten: s.stats.bytesWritten.Load(),
		PoolGets:     ps.Gets,
		PoolReuses:   ps.Reuses,
		PoolIdle:     ps.Idle,
	}
}

// bumpUser counts one op against the fid's attach principal.
func (s *Server) bumpUser(uname string) {
	if uname == "" {
		return
	}
	v, ok := s.userOps.Load(uname)
	if !ok {
		v, _ = s.userOps.LoadOrStore(uname, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
}

// UserOps snapshots the per-principal op counters (uname → ops) — the
// ops console's per-principal view.
func (s *Server) UserOps() map[string]int64 {
	out := map[string]int64{}
	s.userOps.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

func (s *Server) statCounters() map[string]int64 {
	st := s.Stats()
	m := s.UserOps()
	out := map[string]int64{
		"conns_total":   st.ConnsTotal,
		"conns_live":    st.ConnsLive,
		"attaches":      st.Attaches,
		"fids_live":     st.FidsLive,
		"ops":           st.Ops,
		"walks":         st.Walks,
		"walk_names":    st.WalkNames,
		"errors_sent":   st.ErrorsSent,
		"bytes_read":    st.BytesRead,
		"bytes_written": st.BytesWritten,
		"pool_gets":     st.PoolGets,
		"pool_reuses":   st.PoolReuses,
		"pool_idle":     st.PoolIdle,
	}
	for uname, n := range m {
		out["ops_user_"+uname] = n
	}
	return out
}

// Close stops the listener, closes every live connection, and waits for
// their handlers to drain (returning each connection's Processes to the
// pool).
func (s *Server) Close() error {
	s.closing.Store(true)
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		c.nc.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	if s.tel != nil {
		s.tel.UnregisterStats("ninep")
	}
	return err
}

func (s *Server) acceptLoop() {
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.connWG.Add(1)
		go s.serveConn(nc)
	}
}

// identity returns the shared Identity for uname, so every connection
// attached as one principal shares one credential — and one PCC.
func (s *Server) identity(uname string) (*dircache.Identity, error) {
	s.identMu.Lock()
	defer s.identMu.Unlock()
	if id, ok := s.idents[uname]; ok {
		return id, nil
	}
	var c dircache.Creds
	if cfg, ok := s.cfg.Users[uname]; ok {
		c = cfg
	} else if uname == "root" {
		c = dircache.RootCreds()
	} else if uid, err := strconv.ParseUint(uname, 10, 32); err == nil {
		c = dircache.UserCreds(uint32(uid))
	} else {
		return nil, fmt.Errorf("unknown user %q", uname)
	}
	id := dircache.NewIdentity(c)
	s.idents[uname] = id
	return id, nil
}

// fidEntry is one live fid: a path handle bound to the attach identity's
// Process, plus open state once Topen/Tcreate fires. Only a file fid holds
// an open File; a directory fid holds its path and a listing, so it pins
// nothing. The mutex serializes concurrent requests on the SAME fid
// (pipelined dispatch runs distinct tags in parallel); handlers hold it for
// their whole body, so per-fid state like the directory read cursor stays
// sequential.
type fidEntry struct {
	mu      sync.Mutex
	path    string // absolute, lexically maintained
	uname   string // attach principal, for per-user op accounting
	proc    *dircache.Process
	cp      *connProc
	qid     Qid
	opened  bool           // by Topen or Tcreate
	open    *dircache.File // an opened file's handle; nil for a directory
	rclose  bool
	dirBuf  []byte // marshalled stat records for directory reads
	dirOff  uint64 // next expected directory read offset
	dirRead bool   // dirBuf was served: a read at offset 0 lists the path afresh
}

// assign copies nf's state into f (the walk-in-place case), leaving f's
// mutex alone.
func (f *fidEntry) assign(nf *fidEntry) {
	f.path, f.uname, f.proc, f.cp = nf.path, nf.uname, nf.proc, nf.cp
	f.qid, f.opened, f.open, f.rclose = nf.qid, nf.opened, nf.open, nf.rclose
	f.dirBuf, f.dirOff, f.dirRead = nf.dirBuf, nf.dirOff, nf.dirRead
}

// setOpen records f as opened on of at path, in mode. A file fid keeps of
// for its reads and writes. A directory fid keeps its path and a listing:
// of is read to the end into the listing the first Tread serves and
// closed, so an open directory fid pins no dentry and its clunk has
// nothing to release.
func (f *fidEntry) setOpen(path string, mode uint8, of *dircache.File) error {
	fi, err := of.Stat()
	var ents []dircache.DirEntry
	if err == nil && fi.IsDir() {
		ents, err = of.ReadDirAll()
	}
	if err != nil || fi.IsDir() {
		of.Close()
		of = nil
	}
	if err != nil {
		return err
	}
	f.path, f.opened, f.open, f.rclose = path, true, of, mode&ORClose != 0
	f.qid = qidOf(fi)
	if fi.IsDir() {
		f.list(ents)
	}
	return nil
}

// list rebuilds f's directory listing from ents: a stat record per entry
// from an Lstat of its full path (fids are path records: this is the
// permission check a walk to the entry makes), appended into a new dirBuf
// — an Rread of the old one may still be encoding after f.mu is released.
func (f *fidEntry) list(ents []dircache.DirEntry) {
	var pathBuf [256]byte
	path := append(pathBuf[:0], f.path...)
	if f.path != "/" {
		path = append(path, '/')
	}
	dir := len(path)
	f.dirBuf, f.dirOff = nil, 0
	for _, e := range ents {
		path = append(path[:dir], e.Name...)
		fi, err := f.proc.Lstat(string(path))
		if err != nil {
			continue // raced a concurrent remove; skip the entry
		}
		f.dirBuf = appendStat(f.dirBuf, e.Name, fi)
	}
}

// connProc is a per-(connection, uname) Process plus the reader/writer
// lock that keeps wire tracing sound under pipelining: a traced request
// takes the write side (exclusive use of the Process while its span is
// armed — concurrent walks on the Task would annotate into the wrong
// span), untraced requests share the read side and run concurrently.
type connProc struct {
	mu sync.RWMutex
	p  *dircache.Process
}

// maxInflight bounds the per-connection worker pool: enough overlap to
// hide a slow walk behind its neighbors without letting one connection
// monopolize the kernel.
const maxInflight = 8

// conn is one client connection: its fid table, the Processes checked out
// of the pool per attached uname, the resident workers its reader feeds,
// and the in-flight tag table they and Tflush coordinate through.
type conn struct {
	srv   *Server
	nc    net.Conn
	msize uint32 // negotiated; the reader refuses larger frames
	trace bool   // a dc dialect negotiated: honor trace ids and Twalk clunk lists, mark Rread eof
	shard bool   // dcshard negotiated: journal stream + remote shootdown

	mu    sync.Mutex // fids, procs, inflight
	fids  map[uint32]*fidEntry
	procs map[string]*connProc
	// inflight holds every dispatched tag until its response is written.
	// The channel is nil until a Tflush needs to wait on the tag.
	inflight map[uint16]chan struct{}

	wmu sync.Mutex // serializes response frames onto nc

	// work feeds the resident workers. It is unbuffered, so a request is
	// only ever handed to a worker that is free to run it and at most
	// maxInflight run at once. Workers are spawned by the reader, one at a
	// time, when a request arrives and every existing worker is busy: a
	// closed-loop client only ever has one, whose stack is grown once for
	// the connection instead of once per request.
	work     chan Fcall
	workers  int            // spawned so far (reader goroutine only)
	busy     atomic.Int32   // requests handed off whose response is not yet on its way
	workerWG sync.WaitGroup // worker goroutines
	reqs     sync.WaitGroup // requests (and Tflush waiters) not yet settled: the Tversion barrier

	// testStall, when set by a test before any request arrives, is called
	// at the top of every handler — a hook to hold one tag open and prove
	// later tags complete ahead of it.
	testStall func(*Fcall)
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.connWG.Done()
	s.stats.connsTotal.Add(1)
	s.stats.connsLive.Add(1)
	defer s.stats.connsLive.Add(-1)

	c := &conn{
		srv:      s,
		nc:       nc,
		msize:    min(DefaultMsize, s.cfg.MaxMsize),
		fids:     map[uint32]*fidEntry{},
		procs:    map[string]*connProc{},
		inflight: map[uint16]chan struct{}{},
		work:     make(chan Fcall),
	}
	if fn := s.testStall.Load(); fn != nil {
		c.testStall = *fn
	}
	s.connMu.Lock()
	if s.closing.Load() {
		s.connMu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.connMu.Unlock()

	defer func() {
		// Drain before tearing down the state requests use: workers finish
		// what they hold and exit, Tflush waiters follow their oldtags.
		close(c.work)
		c.workerWG.Wait()
		c.reqs.Wait()
		c.reset()
		c.mu.Lock()
		for uname, cp := range c.procs {
			s.pool.Put(cp.p)
			delete(c.procs, uname)
		}
		c.mu.Unlock()
		nc.Close()
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
	}()

	// The reader owns one frame reader and one request it decodes every
	// frame into (workers get a copy). The few responses it writes itself
	// (Rversion, an immediate Rflush, a duplicate-tag Rerror) are rare
	// enough to encode into a fresh buffer each.
	fr := frameReader{r: nc}
	var req Fcall
	for {
		body, err := fr.next(c.msize)
		if err != nil {
			return // EOF, reset, or framing violation: drop the connection
		}
		s.stats.bytesRead.Add(int64(len(body) + 4))
		if req.unmarshal(body) != nil {
			return
		}
		switch req.Type {
		case MsgTversion:
			// Version resets the session: barrier on everything in
			// flight, then handle serially.
			c.reqs.Wait()
			c.respond(nil, req.Tag, c.dispatch(&req))
		case MsgTflush:
			c.tflush(&req)
		default:
			c.mu.Lock()
			_, dup := c.inflight[req.Tag]
			if !dup {
				c.inflight[req.Tag] = nil
			}
			c.mu.Unlock()
			if dup {
				c.srv.stats.ops.Add(1)
				c.respond(nil, req.Tag, &Fcall{Type: MsgRerror, Ename: "duplicate tag"})
				continue
			}
			c.reqs.Add(1)
			if int(c.busy.Add(1)) > c.workers && c.workers < maxInflight {
				c.workers++
				c.workerWG.Add(1)
				go c.worker()
			}
			c.work <- req // blocks while maxInflight requests are running
		}
	}
}

// worker is one resident worker: it runs requests off c.work until the
// reader closes the channel, encoding every response into a buffer it
// keeps.
func (c *conn) worker() {
	defer c.workerWG.Done()
	var out []byte
	// One request variable for the worker's lifetime: it escapes (through
	// the testStall hook), so a per-iteration one would be a heap
	// allocation per request.
	var req Fcall
	for {
		var ok bool
		if req, ok = <-c.work; !ok {
			return
		}
		resp := c.dispatch(&req)
		// Before the response can reach the peer: once a client has its
		// answer and sends the next request, the reader must count this
		// worker as free and wait for it rather than spawn another.
		c.busy.Add(-1)
		out = c.respond(out, req.Tag, resp)
		c.mu.Lock()
		flushed := c.inflight[req.Tag]
		delete(c.inflight, req.Tag)
		c.mu.Unlock()
		if flushed != nil {
			close(flushed)
		}
		c.reqs.Done()
	}
}

// tflush honors the flush protocol under pipelining: if oldtag is still
// in flight, the Rflush is deferred until the flushed request's response
// has been written (the server answers the old request normally — it has
// already taken effect — and THEN confirms the flush); an unknown oldtag
// (already answered, or never seen) flushes immediately.
func (c *conn) tflush(req *Fcall) {
	c.srv.stats.ops.Add(1)
	c.mu.Lock()
	settled, inflight := c.inflight[req.Oldtag]
	if inflight && settled == nil {
		settled = make(chan struct{})
		c.inflight[req.Oldtag] = settled
	}
	c.mu.Unlock()
	if !inflight {
		c.respond(nil, req.Tag, &Fcall{Type: MsgRflush})
		return
	}
	tag := req.Tag
	c.reqs.Add(1)
	go func() {
		defer c.reqs.Done()
		<-settled
		c.respond(nil, tag, &Fcall{Type: MsgRflush})
	}()
}

// respond encodes resp under tag into buf (nil for a one-off) and writes
// the frame, serialized against concurrent workers by the write mutex. It
// returns the buffer so a worker can reuse it for its next response.
func (c *conn) respond(buf []byte, tag uint16, resp *Fcall) []byte {
	resp.Tag = tag
	out, err := AppendMarshal(buf[:0], resp)
	if err != nil {
		// Response exceeded wire limits (e.g. a >64KiB stat); report
		// rather than killing the conn.
		resp = &Fcall{Type: MsgRerror, Tag: tag, Ename: ErrnoEname(fsapi.EINVAL)}
		out, _ = AppendMarshal(buf[:0], resp)
	}
	if resp.Type == MsgRerror {
		c.srv.stats.errorsSent.Add(1)
	}
	c.wmu.Lock()
	_, werr := c.nc.Write(out)
	c.wmu.Unlock()
	if werr == nil {
		c.srv.stats.bytesWritten.Add(int64(len(out)))
	}
	return out
}

// reset clunks every fid (closing open files), as Tversion demands. The
// caller guarantees no requests are in flight.
func (c *conn) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.srv.stats.fidsLive.Add(-int64(len(c.fids)))
	for n, f := range c.fids {
		if f.open != nil {
			f.open.Close()
		}
		delete(c.fids, n)
	}
}

// histFor buckets a request type into its per-op histogram.
func histFor(t uint8) telemetry.HistID {
	switch t {
	case MsgTversion, MsgTauth, MsgTattach:
		return telemetry.HistServeAttach
	case MsgTwalk:
		return telemetry.HistServeWalk
	case MsgTopen, MsgTcreate:
		return telemetry.HistServeOpen
	case MsgTread, MsgTwrite:
		return telemetry.HistServeRead
	case MsgTstat, MsgTwstat:
		return telemetry.HistServeStat
	default:
		return telemetry.HistServeClunk
	}
}

// dispatch handles one request and builds its response. A request
// carrying a dctrace trace id gets a server span stitched (by that wire
// id) to the client's RPC span; the handler arms it on its Process so
// the kernel walk it triggers annotates per-stage events in place.
func (c *conn) dispatch(req *Fcall) *Fcall {
	c.srv.stats.ops.Add(1)
	var span *telemetry.WalkTrace
	if c.trace && req.TraceID != 0 {
		span = c.srv.tel.StartSpan("server", MsgName(req.Type), "", req.TraceID)
	}
	t0 := time.Now()
	resp, err := c.handle(req, span)
	d := time.Since(t0)
	var spanID uint64
	if span != nil {
		spanID = span.ID
	}
	c.srv.tel.RecordEx(histFor(req.Type), d, spanID)
	if span != nil {
		c.srv.tel.FinishSpan(span, err, d)
	}
	if err != nil {
		return &Fcall{Type: MsgRerror, Ename: ErrnoEname(err)}
	}
	return resp
}

// protoErr is a non-errno protocol violation reported via Rerror.
type protoErr string

func (e protoErr) Error() string { return string(e) }

func (c *conn) handle(req *Fcall, span *telemetry.WalkTrace) (*Fcall, error) {
	if stall := c.testStall; stall != nil {
		stall(req)
	}
	switch req.Type {
	case MsgTversion:
		return c.tversion(req)
	case MsgTauth:
		return nil, protoErr("authentication not required")
	case MsgTattach:
		return c.tattach(req)
	case MsgTwalk:
		return c.twalk(req, span)
	case MsgTopen:
		return c.topen(req, span)
	case MsgTcreate:
		return c.tcreate(req)
	case MsgTread:
		return c.tread(req)
	case MsgTwrite:
		return c.twrite(req)
	case MsgTclunk:
		return c.tclunk(req)
	case MsgTremove:
		return c.tremove(req)
	case MsgTstat:
		return c.tstat(req, span)
	case MsgTwstat:
		return c.twstat(req)
	case MsgTjournal:
		return c.tjournal(req)
	case MsgTshoot:
		return c.tshoot(req)
	default:
		return nil, protoErr("illegal message type " + MsgName(req.Type))
	}
}

// lockProc takes the fid's Process for the handler's duration. A traced
// request takes it exclusively and arms its span — the armed trace is a
// single per-Task slot, so a concurrent walk on the same Process would
// annotate its stages into the wrong span. Untraced requests share the
// read side and run concurrently.
func (c *conn) lockProc(cp *connProc, span *telemetry.WalkTrace) {
	if span != nil {
		cp.mu.Lock()
		cp.p.ArmTrace(span)
		return
	}
	cp.mu.RLock()
}

// unlockProc undoes lockProc for the same span.
func (c *conn) unlockProc(cp *connProc, span *telemetry.WalkTrace) {
	if span != nil {
		cp.p.ArmTrace(nil)
		cp.mu.Unlock()
		return
	}
	cp.mu.RUnlock()
}

// insertFid installs nf at n, failing if n is busy. The install-time check
// is the authoritative one: pre-checks in handlers are advisory under
// pipelined dispatch.
func (c *conn) insertFid(n uint32, nf *fidEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, busy := c.fids[n]; busy {
		return protoErr("fid already in use")
	}
	c.fids[n] = nf
	c.srv.stats.fidsLive.Add(1)
	return nil
}

// takeFid atomically removes and returns fid n (the clunk/remove path).
func (c *conn) takeFid(n uint32) (*fidEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.fids[n]
	if !ok {
		return nil, fsapi.EBADF
	}
	delete(c.fids, n)
	c.srv.stats.fidsLive.Add(-1)
	c.srv.bumpUser(f.uname)
	return f, nil
}

func (c *conn) tversion(req *Fcall) (*Fcall, error) {
	c.reset()
	ms := req.Msize
	if ms > c.srv.cfg.MaxMsize {
		ms = c.srv.cfg.MaxMsize
	}
	if ms < MinMsize {
		return nil, protoErr("msize too small")
	}
	c.msize = ms
	ver := Version
	c.trace = false
	c.shard = false
	switch {
	case req.Version == VersionShard:
		// Exact matches only — checked before the 9P2000 prefix fallback,
		// which both extensions would otherwise satisfy. dcshard implies
		// dctrace and additionally opens the journal stream: negotiating it
		// turns on shard coherence so Tjournal subscribers see this
		// server's mutations.
		ver = VersionShard
		c.trace = true
		c.shard = true
		c.srv.sys.EnableShardCoherence()
	case req.Version == VersionTrace:
		ver = VersionTrace
		c.trace = true
	case !strings.HasPrefix(req.Version, Version):
		ver = VersionUnknown
	}
	return &Fcall{Type: MsgRversion, Msize: ms, Version: ver}, nil
}

// procFor returns the connection's Process for uname, checking one out of
// the pool on first use. Connections attached under several unames hold
// one Process per uname, each carrying that principal's shared identity.
func (c *conn) procFor(uname string) (*connProc, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp, ok := c.procs[uname]; ok {
		return cp, nil
	}
	id, err := c.srv.identity(uname)
	if err != nil {
		return nil, protoErr(err.Error())
	}
	cp := &connProc{p: c.srv.pool.Get(id)}
	c.procs[uname] = cp
	return cp, nil
}

func (c *conn) tattach(req *Fcall) (*Fcall, error) {
	if req.Afid != NoFid {
		return nil, protoErr("authentication not required")
	}
	cp, err := c.procFor(req.Uname)
	if err != nil {
		return nil, err
	}
	root := "/"
	if req.Aname != "" && req.Aname != "/" {
		root = cleanAbs(req.Aname)
	}
	cp.mu.RLock()
	fi, err := cp.p.Stat(root)
	cp.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return nil, fsapi.ENOTDIR
	}
	nf := &fidEntry{path: root, uname: req.Uname, proc: cp.p, cp: cp, qid: qidOf(fi)}
	if err := c.insertFid(req.Fid, nf); err != nil {
		return nil, err
	}
	c.srv.stats.attaches.Add(1)
	c.srv.bumpUser(req.Uname)
	return &Fcall{Type: MsgRattach, Qid: qidOf(fi)}, nil
}

func (c *conn) lookupFid(n uint32) (*fidEntry, error) {
	c.mu.Lock()
	f, ok := c.fids[n]
	c.mu.Unlock()
	if !ok {
		return nil, fsapi.EBADF
	}
	c.srv.bumpUser(f.uname)
	return f, nil
}

// twalk resolves the whole name sequence with ONE multi-component kernel
// walk — the wire request maps to a single Lstat of the joined path, so a
// warm walk is a DLHT full-path hit regardless of depth, and a cold one
// funnels through miss coalescing exactly like a local walk. Intermediate
// qids are then read back per prefix; those walks run entirely warm off
// the entries the full walk just populated.
// Only when the full walk fails does the server fall back to
// component-at-a-time resolution to honor 9P partial-walk semantics.
// On the dc dialects the clunk list is applied first (a list naming the
// source fid fails the walk with EBADF).
func (c *conn) twalk(req *Fcall, span *telemetry.WalkTrace) (*Fcall, error) {
	for i := 0; c.trace && i < int(req.Nclunk); i++ {
		_ = c.clunkFid(req.Clunks[i]) // EBADF: an unknown fid is skipped
	}
	src, err := c.lookupFid(req.Fid)
	if err != nil {
		return nil, err
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.opened {
		return nil, protoErr("cannot walk an open fid")
	}
	c.srv.stats.walks.Add(1)
	c.srv.stats.walkNames.Add(int64(len(req.Wname)))

	if len(req.Wname) == 0 { // clone
		if req.Newfid != req.Fid {
			nf := &fidEntry{path: src.path, uname: src.uname, proc: src.proc, cp: src.cp, qid: src.qid}
			if err := c.insertFid(req.Newfid, nf); err != nil {
				return nil, err
			}
		}
		return &Fcall{Type: MsgRwalk}, nil
	}

	// One joined path for the kernel walk; each name's prefix is a
	// substring of it until a "." or ".." has to be folded lexically.
	full := withDotDot(src.path, req.Wname)
	var pathBuf [MaxWalkNames]string
	paths := pathBuf[:len(req.Wname)]
	cur, end, folded := src.path, len(src.path), false
	if cur == "/" {
		end = 0
	}
	for i, name := range req.Wname {
		if strings.ContainsRune(name, '/') || name == "" {
			return nil, fsapi.EINVAL
		}
		folded = folded || name == "." || name == ".."
		if folded {
			cur = joinStep(cur, name)
		} else {
			end += 1 + len(name)
			cur = full[:end]
		}
		paths[i] = cur
	}

	c.lockProc(src.cp, span)
	defer c.unlockProc(src.cp, span)

	final := paths[len(paths)-1]
	qids := make([]Qid, 0, len(paths))
	if span != nil {
		// The armed span is consumed by the walk the full-path Lstat
		// triggers, so the per-prefix qid read-backs (and any twalkSlow
		// fallback steps) stay out of it.
		span.Path = full
	}
	fi, err := src.proc.Lstat(full) // the one multi-component walk
	if err == nil {
		for _, p := range paths[:len(paths)-1] {
			pfi, perr := src.proc.Lstat(p)
			if perr != nil {
				// The tree mutated between the full walk and the qid
				// read-back; fall back to the component loop.
				return c.twalkSlow(req, src, paths, nil)
			}
			qids = append(qids, qidOf(pfi))
		}
		qids = append(qids, qidOf(fi))
		nf := &fidEntry{path: final, uname: src.uname, proc: src.proc, cp: src.cp, qid: qidOf(fi)}
		if req.Newfid == req.Fid {
			src.assign(nf)
		} else if err := c.insertFid(req.Newfid, nf); err != nil {
			return nil, err
		}
		return &Fcall{Type: MsgRwalk, Wqid: qids}, nil
	}
	return c.twalkSlow(req, src, paths, err)
}

// twalkSlow implements 9P partial-walk semantics: resolve one name at a
// time, stop at the first failure, and succeed with the prefix's qids
// (error only when the very first name fails). On the dc dialects the
// partial Rwalk also carries fullErr, the full-path Lstat's errno (it
// follows the symlinks this loop stops at), or else the failing name's.
func (c *conn) twalkSlow(req *Fcall, src *fidEntry, paths []string, fullErr error) (*Fcall, error) {
	var qids []Qid
	for _, p := range paths {
		fi, err := src.proc.Lstat(p)
		if err == nil && len(qids) < len(paths)-1 && !fi.IsDir() {
			err = fsapi.ENOTDIR
		}
		if err != nil {
			if len(qids) == 0 {
				return nil, err
			}
			resp := &Fcall{Type: MsgRwalk, Wqid: qids} // partial: newfid not created
			if c.trace {
				resp.Errno = uint32(fsapi.ToErrno(cmp.Or(fullErr, err)))
			}
			return resp, nil
		}
		qids = append(qids, qidOf(fi))
	}
	last := paths[len(paths)-1]
	nf := &fidEntry{path: last, uname: src.uname, proc: src.proc, cp: src.cp, qid: qids[len(qids)-1]}
	if req.Newfid == req.Fid {
		src.assign(nf)
	} else if err := c.insertFid(req.Newfid, nf); err != nil {
		return nil, err
	}
	return &Fcall{Type: MsgRwalk, Wqid: qids}, nil
}

func (c *conn) topen(req *Fcall, span *telemetry.WalkTrace) (*Fcall, error) {
	f, err := c.lookupFid(req.Fid)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.opened {
		return nil, protoErr("fid already open")
	}
	flags, err := openFlags(req.Mode, f.qid.IsDir())
	if err != nil {
		return nil, err
	}
	c.lockProc(f.cp, span)
	defer c.unlockProc(f.cp, span)
	if span != nil {
		span.Path = f.path
	}
	of, err := f.proc.Open(f.path, flags, 0)
	if err != nil {
		return nil, err
	}
	if err := f.setOpen(f.path, req.Mode, of); err != nil {
		return nil, err
	}
	return &Fcall{Type: MsgRopen, Qid: f.qid, Iounit: c.iounit()}, nil
}

func (c *conn) tcreate(req *Fcall) (*Fcall, error) {
	f, err := c.lookupFid(req.Fid)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c.lockProc(f.cp, nil)
	defer c.unlockProc(f.cp, nil)
	if f.opened {
		return nil, protoErr("fid already open")
	}
	if !f.qid.IsDir() {
		return nil, fsapi.ENOTDIR
	}
	if strings.ContainsRune(req.Name, '/') || req.Name == "" || req.Name == "." || req.Name == ".." {
		return nil, fsapi.EINVAL
	}
	path := joinStep(f.path, req.Name)
	if req.Perm&DMDir != 0 {
		if req.Mode&^ORClose != ORead {
			return nil, fsapi.EISDIR
		}
		if err := f.proc.Mkdir(path, req.Perm&0o777); err != nil {
			return nil, err
		}
		of, err := f.proc.Open(path, dircache.O_RDONLY|dircache.O_DIRECTORY, 0)
		if err != nil {
			return nil, err
		}
		return c.finishCreate(f, req, path, of)
	}
	flags, err := openFlags(req.Mode, false)
	if err != nil {
		return nil, err
	}
	of, err := f.proc.Open(path, flags|dircache.O_CREAT|dircache.O_EXCL, req.Perm&0o777)
	if err != nil {
		return nil, err
	}
	return c.finishCreate(f, req, path, of)
}

func (c *conn) finishCreate(f *fidEntry, req *Fcall, path string, of *dircache.File) (*Fcall, error) {
	if err := f.setOpen(path, req.Mode, of); err != nil {
		return nil, err
	}
	c.srv.sys.PublishCoherence(path, "create")
	return &Fcall{Type: MsgRcreate, Qid: f.qid, Iounit: c.iounit()}, nil
}

func (c *conn) tread(req *Fcall) (*Fcall, error) {
	f, err := c.lookupFid(req.Fid)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c.lockProc(f.cp, nil)
	defer c.unlockProc(f.cp, nil)
	if !f.opened {
		return nil, protoErr("fid not open")
	}
	count := req.Count
	if max := c.iounit(); count > max {
		count = max
	}
	if f.qid.IsDir() {
		return c.readDir(f, req.Offset, count)
	}
	buf := make([]byte, count)
	n, err := f.open.ReadAt(buf, int64(req.Offset))
	if err != nil && n == 0 && !errors.Is(err, io.EOF) {
		return nil, err
	}
	// The backends answer a read past the end short and without io.EOF,
	// which io.ReaderAt's contract makes the same answer.
	eof := errors.Is(err, io.EOF) || err == nil && n < len(buf)
	return &Fcall{Type: MsgRread, Data: buf[:n], EOF: c.trace && eof}, nil
}

// readDir serves directory reads from the listing setOpen took — a
// readdir-then-stat scan, exactly the shape DIR_COMPLETE and bulk
// population are built to absorb. A rewind to offset 0 lists the path
// afresh (open, read and close in one pass), re-resolving it as tstat
// does. A count too small for the next record is EINVAL: an empty Rread
// would read as the end of the directory.
func (c *conn) readDir(f *fidEntry, offset uint64, count uint32) (*Fcall, error) {
	switch {
	case offset == 0 && f.dirRead:
		ents, err := f.proc.ReadDir(f.path)
		if err != nil {
			return nil, err
		}
		f.list(ents)
	case offset != f.dirOff:
		return nil, protoErr("non-sequential directory read")
	}
	rest := f.dirBuf[min(int(offset), len(f.dirBuf)):]
	// Truncate to whole stat records within count.
	n := 0
	for n < len(rest) {
		rl := int(uint16(rest[n])|uint16(rest[n+1])<<8) + 2
		if n+rl > int(count) {
			break
		}
		n += rl
	}
	if n == 0 && len(rest) > 0 {
		return nil, fsapi.EINVAL
	}
	f.dirOff, f.dirRead = offset+uint64(n), true
	return &Fcall{Type: MsgRread, Data: rest[:n], EOF: c.trace && n == len(rest)}, nil
}

func (c *conn) twrite(req *Fcall) (*Fcall, error) {
	f, err := c.lookupFid(req.Fid)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c.lockProc(f.cp, nil)
	defer c.unlockProc(f.cp, nil)
	if !f.opened {
		return nil, protoErr("fid not open")
	}
	if f.qid.IsDir() {
		return nil, fsapi.EISDIR
	}
	if _, err := f.open.Seek(int64(req.Offset), 0); err != nil {
		return nil, err
	}
	n, err := f.open.Write(req.Data)
	if err != nil {
		return nil, err
	}
	return &Fcall{Type: MsgRwrite, Count: uint32(n)}, nil
}

func (c *conn) tclunk(req *Fcall) (*Fcall, error) {
	return &Fcall{Type: MsgRclunk}, c.clunkFid(req.Fid)
}

// clunkFid is Tclunk's effect, shared with Twalk's clunk list.
func (c *conn) clunkFid(n uint32) error {
	f, err := c.takeFid(n)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.open != nil {
		f.open.Close()
	}
	if f.rclose {
		c.lockProc(f.cp, nil)
		f.remove() // best-effort, like Plan 9
		c.unlockProc(f.cp, nil)
	}
	return nil
}

// remove deletes the fid's object, a directory with Rmdir: Tremove's
// effect, and an ORCLOSE fid's clunk.
func (f *fidEntry) remove() error {
	if f.qid.IsDir() {
		return f.proc.Rmdir(f.path)
	}
	return f.proc.Unlink(f.path)
}

func (c *conn) tremove(req *Fcall) (*Fcall, error) {
	f, err := c.takeFid(req.Fid)
	if err != nil {
		return nil, err
	}
	// Remove always clunks, success or not.
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.open != nil {
		f.open.Close()
	}
	c.lockProc(f.cp, nil)
	defer c.unlockProc(f.cp, nil)
	if err := f.remove(); err != nil {
		return nil, err
	}
	return &Fcall{Type: MsgRremove}, nil
}

func (c *conn) tstat(req *Fcall, span *telemetry.WalkTrace) (*Fcall, error) {
	f, err := c.lookupFid(req.Fid)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c.lockProc(f.cp, span)
	defer c.unlockProc(f.cp, span)
	if span != nil {
		span.Path = f.path
	}
	fi, err := f.proc.Lstat(f.path)
	if err != nil {
		return nil, err
	}
	return &Fcall{Type: MsgRstat, Stat: statOf(baseName(f.path), fi)}, nil
}

func (c *conn) twstat(req *Fcall) (*Fcall, error) {
	f, err := c.lookupFid(req.Fid)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c.lockProc(f.cp, nil)
	defer c.unlockProc(f.cp, nil)
	st := req.Stat
	if st.Mode != noChange32 {
		if err := f.proc.Chmod(f.path, st.Mode&0o777); err != nil {
			return nil, err
		}
	}
	if st.UID != "" || st.GID != "" {
		fi, err := f.proc.Lstat(f.path)
		if err != nil {
			return nil, err
		}
		uid, gid := fi.UID, fi.GID
		if st.UID != "" {
			v, err := strconv.ParseUint(st.UID, 10, 32)
			if err != nil {
				return nil, fsapi.EINVAL
			}
			uid = uint32(v)
		}
		if st.GID != "" {
			v, err := strconv.ParseUint(st.GID, 10, 32)
			if err != nil {
				return nil, fsapi.EINVAL
			}
			gid = uint32(v)
		}
		if err := f.proc.Chown(f.path, uid, gid); err != nil {
			return nil, err
		}
	}
	if st.Length != noChange64 {
		if err := f.proc.Truncate(f.path, int64(st.Length)); err != nil {
			return nil, err
		}
	}
	if st.Name != "" && st.Name != baseName(f.path) {
		if strings.ContainsRune(st.Name, '/') {
			return nil, fsapi.EINVAL
		}
		dst := joinStep(parentOf(f.path), st.Name)
		if err := f.proc.Rename(f.path, dst); err != nil {
			return nil, err
		}
		f.path = dst
		c.srv.sys.PublishCoherence(dst, "rename-dst")
	}
	return &Fcall{Type: MsgRwstat}, nil
}

// tjournal serves the coherence-log subscription (9P2000.dcshard only):
// the records after the client's cursor (carried in Offset), the advanced
// cursor and the fell-behind flag, straight from the System's log. The
// batch is capped to the negotiated msize; a truncated batch sets
// RjournalMore and rewinds the returned cursor to the last record
// shipped, so the client's re-poll resumes there. A record that does not
// fit an empty batch can never be shipped: the subscriber is told it fell
// behind, which makes it drop everything that record could have named.
func (c *conn) tjournal(req *Fcall) (*Fcall, error) {
	if !c.shard {
		return nil, protoErr("journal stream requires " + VersionShard)
	}
	recs, next, fell := c.srv.sys.EventsSince(req.Offset)
	resp := &Fcall{Type: MsgRjournal, Offset: next, Journal: recs}
	if fell {
		resp.Mode |= RjournalFellBehind
	}
	budget := int(c.iounit())
	for i, rec := range recs {
		if budget -= 8 + 2 + len(rec.Note) + 2 + len(rec.Path); budget >= 0 {
			continue
		}
		resp.Journal = recs[:i]
		if i == 0 {
			resp.Mode |= RjournalFellBehind
		} else {
			resp.Mode |= RjournalMore
			resp.Offset = recs[i-1].ID
		}
		break
	}
	return resp, nil
}

// tshoot applies a peer's coherence record to the server's cache
// (System.RemoteInvalidate; "" or "/" = drop everything, the fail-closed
// fallback), answering with the number of dentries discarded.
func (c *conn) tshoot(req *Fcall) (*Fcall, error) {
	if !c.shard {
		return nil, protoErr("shootdown requires " + VersionShard)
	}
	var n int
	if req.Name == "" || req.Name == "/" {
		n = c.srv.sys.RemoteInvalidateAll()
	} else {
		n = c.srv.sys.RemoteInvalidate(dircache.CoherenceRecord{Path: cleanAbs(req.Name), Note: req.Aname})
	}
	return &Fcall{Type: MsgRshoot, Count: uint32(n)}, nil
}

// iounit is the largest read/write payload within the negotiated msize.
func (c *conn) iounit() uint32 { return c.msize - IOHeaderSize }

// --- path and metadata helpers ---------------------------------------

// joinStep appends one walk component to an absolute path, folding "."
// and ".." lexically (9P fids are path handles; ".." at "/" stays put).
func joinStep(dir, name string) string {
	switch name {
	case ".":
		return dir
	case "..":
		return parentOf(dir)
	}
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// withDotDot joins the walk names onto base for the kernel walk. The
// kernel resolves "." and ".." itself, so the joined string is passed
// through verbatim.
func withDotDot(base string, names []string) string {
	if base == "/" {
		base = ""
	}
	n := len(base)
	for _, name := range names {
		n += 1 + len(name)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(base)
	for _, name := range names {
		b.WriteByte('/')
		b.WriteString(name)
	}
	return b.String()
}

func parentOf(p string) string {
	if i := strings.LastIndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return "/"
}

func baseName(p string) string {
	if p == "/" {
		return "/"
	}
	return p[strings.LastIndexByte(p, '/')+1:]
}

// cleanAbs lexically normalizes an attach aname into an absolute path.
func cleanAbs(p string) string {
	out := "/"
	for _, seg := range strings.Split(p, "/") {
		if seg != "" {
			out = joinStep(out, seg)
		}
	}
	return out
}

// qidOf derives the wire qid from file metadata: the inode as path, the
// logical mtime as version, and the type bits.
func qidOf(fi dircache.FileInfo) Qid {
	q := Qid{Version: uint32(fi.Mtime), Path: fi.Inode}
	switch fi.Type {
	case dircache.TypeDirectory:
		q.Type = QTDir
	case dircache.TypeSymlink:
		q.Type = QTSymlink
	}
	return q
}

// modeOf derives the 9P mode: the permission bits and the type bits.
func modeOf(fi dircache.FileInfo) uint32 {
	mode := fi.Perm & 0o777
	switch fi.Type {
	case dircache.TypeDirectory:
		mode |= DMDir
	case dircache.TypeSymlink:
		mode |= DMSymlink
	}
	return mode
}

// statOf builds the 9P stat record for one object.
func statOf(name string, fi dircache.FileInfo) Stat {
	return Stat{
		Qid:    qidOf(fi),
		Mode:   modeOf(fi),
		Mtime:  uint32(fi.Mtime),
		Atime:  uint32(fi.Mtime),
		Length: uint64(fi.Size),
		Name:   name,
		UID:    strconv.FormatUint(uint64(fi.UID), 10),
		GID:    strconv.FormatUint(uint64(fi.GID), 10),
		MUID:   strconv.FormatUint(uint64(fi.UID), 10),
	}
}

// appendStat appends the record MarshalStat(statOf(name, fi)) renders
// without building either: uid, gid and muid are formatted in place.
func appendStat(buf []byte, name string, fi dircache.FileInfo) []byte {
	e := encoder{buf: buf}
	m := e.mark()
	e.u16(0) // type
	e.u32(0) // dev
	e.qid(qidOf(fi))
	e.u32(modeOf(fi))
	e.u32(uint32(fi.Mtime)) // atime
	e.u32(uint32(fi.Mtime))
	e.u64(uint64(fi.Size))
	e.str(name)
	for _, id := range [...]uint32{fi.UID, fi.GID, fi.UID} { // uid gid muid
		s := e.mark()
		e.buf = strconv.AppendUint(e.buf, uint64(id), 10)
		e.patch16(s)
	}
	e.patch16(m)
	return e.buf
}

// openFlags maps a 9P open mode byte onto the VFS open flags.
func openFlags(mode uint8, isDir bool) (dircache.OpenFlag, error) {
	var fl dircache.OpenFlag
	switch mode &^ (OTrunc | ORClose) {
	case ORead:
		fl = dircache.O_RDONLY
	case OWrite:
		fl = dircache.O_WRONLY
	case ORdWr:
		fl = dircache.O_RDWR
	case OExec:
		fl = dircache.O_RDONLY
	default:
		return 0, fsapi.EINVAL
	}
	if isDir {
		if fl != dircache.O_RDONLY || mode&OTrunc != 0 {
			return 0, fsapi.EISDIR
		}
		fl |= dircache.O_DIRECTORY
	}
	if mode&OTrunc != 0 {
		fl |= dircache.O_TRUNC
	}
	return fl, nil
}
