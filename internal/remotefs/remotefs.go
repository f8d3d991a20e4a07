// Package remotefs simulates an NFSv2/3-style network file system: a
// stateless server reached over a simulated network, with the client
// semantics that §4.3 of the paper calls out — close-to-open consistency
// forces the client to revalidate every path component at the server, so
// whole-path direct lookup buys nothing ("effectively forcing a cache miss
// and nullifying any benefit to the hit path"). The VFS honours this via
// the Revalidate capability: the optimized cache never serves fastpath
// hits for dentries on such a file system.
//
// The "server" is any fsapi.FileSystem; this package wraps it with
// per-operation round-trip accounting charged to a virtual clock. Each
// protocol operation keeps its own RPC counter, and per-op latency can be
// injected individually (PerOpNanos), so tests and benches count round
// trips — "the storm issued one LOOKUP per name" — rather than infer
// them from wall time.
package remotefs

import (
	"sync/atomic"

	"dircache/internal/fsapi"
	"dircache/internal/vclock"
)

// Op indexes one simulated protocol operation (the RPC kinds of an
// NFSv2/3-style protocol as seen through fsapi).
type Op int

// The protocol operations, in fsapi declaration order.
const (
	OpGetNode Op = iota // GETATTR
	OpLookup            // LOOKUP
	OpCreate
	OpMkdir
	OpSymlink
	OpLink
	OpUnlink
	OpRmdir
	OpRename
	OpReadDir // READDIR (one trip per batch)
	OpReadLink
	OpSetAttr
	OpReadAt
	OpWriteAt
	OpSync // COMMIT

	NumOps
)

var opNames = [NumOps]string{
	"getnode", "lookup", "create", "mkdir", "symlink", "link", "unlink",
	"rmdir", "rename", "readdir", "readlink", "setattr", "read", "write",
	"sync",
}

// String returns the operation's counter name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// Options configures the simulated client/server pair.
type Options struct {
	// RTTNanos is charged per server round trip (default 200µs, a fast
	// LAN NFS server).
	RTTNanos int64
	// PerOpNanos overrides RTTNanos for individual operations, keyed by
	// Op.String() name ("lookup", "readdir", ...).
	PerOpNanos map[string]int64
}

// FS wraps a backing file system behind a simulated network.
type FS struct {
	server fsapi.FileSystem
	rtt    int64
	perOp  [NumOps]int64 // 0 = use rtt
	clock  atomic.Pointer[vclock.Run]
	trips  atomic.Int64
	ops    [NumOps]atomic.Int64
}

var _ fsapi.FileSystem = (*FS)(nil)

// New wraps server as a remote file system.
func New(server fsapi.FileSystem, opts Options) *FS {
	rtt := opts.RTTNanos
	if rtt == 0 {
		rtt = 200_000
	}
	fs := &FS{server: server, rtt: rtt}
	for op := Op(0); op < NumOps; op++ {
		if ns, ok := opts.PerOpNanos[op.String()]; ok {
			fs.perOp[op] = ns
		}
	}
	return fs
}

// SetClock directs round-trip charges to run.
func (fs *FS) SetClock(run *vclock.Run) { fs.clock.Store(run) }

// RoundTrips reports the number of simulated server messages.
func (fs *FS) RoundTrips() int64 { return fs.trips.Load() }

// OpCount reports the round trips issued for one operation by name
// ("lookup", "readdir", ...); unknown names report 0.
func (fs *FS) OpCount(name string) int64 {
	for op := Op(0); op < NumOps; op++ {
		if op.String() == name {
			return fs.ops[op].Load()
		}
	}
	return 0
}

// OpCounts snapshots every operation's round-trip counter by name.
func (fs *FS) OpCounts() map[string]int64 {
	out := make(map[string]int64, NumOps)
	for op := Op(0); op < NumOps; op++ {
		out[op.String()] = fs.ops[op].Load()
	}
	return out
}

func (fs *FS) trip(op Op) {
	fs.trips.Add(1)
	fs.ops[op].Add(1)
	ns := fs.perOp[op]
	if ns == 0 {
		ns = fs.rtt
	}
	fs.clock.Load().Charge(ns)
}

// Root implements fsapi.FileSystem (mount-time; no trip charged).
func (fs *FS) Root() fsapi.NodeInfo { return fs.server.Root() }

// GetNode implements fsapi.FileSystem (GETATTR).
func (fs *FS) GetNode(id fsapi.NodeID) (fsapi.NodeInfo, error) {
	fs.trip(OpGetNode)
	return fs.server.GetNode(id)
}

// Lookup implements fsapi.FileSystem (LOOKUP — one trip per component,
// the §4.3 cost direct lookup cannot avoid on a stateless protocol).
func (fs *FS) Lookup(dir fsapi.NodeID, name string) (fsapi.NodeInfo, error) {
	fs.trip(OpLookup)
	return fs.server.Lookup(dir, name)
}

// Create implements fsapi.FileSystem.
func (fs *FS) Create(dir fsapi.NodeID, name string, mode fsapi.Mode, uid, gid uint32) (fsapi.NodeInfo, error) {
	fs.trip(OpCreate)
	return fs.server.Create(dir, name, mode, uid, gid)
}

// Mkdir implements fsapi.FileSystem.
func (fs *FS) Mkdir(dir fsapi.NodeID, name string, mode fsapi.Mode, uid, gid uint32) (fsapi.NodeInfo, error) {
	fs.trip(OpMkdir)
	return fs.server.Mkdir(dir, name, mode, uid, gid)
}

// Symlink implements fsapi.FileSystem.
func (fs *FS) Symlink(dir fsapi.NodeID, name, target string, uid, gid uint32) (fsapi.NodeInfo, error) {
	fs.trip(OpSymlink)
	return fs.server.Symlink(dir, name, target, uid, gid)
}

// Link implements fsapi.FileSystem.
func (fs *FS) Link(dir fsapi.NodeID, name string, node fsapi.NodeID) (fsapi.NodeInfo, error) {
	fs.trip(OpLink)
	return fs.server.Link(dir, name, node)
}

// Unlink implements fsapi.FileSystem.
func (fs *FS) Unlink(dir fsapi.NodeID, name string) error {
	fs.trip(OpUnlink)
	return fs.server.Unlink(dir, name)
}

// Rmdir implements fsapi.FileSystem.
func (fs *FS) Rmdir(dir fsapi.NodeID, name string) error {
	fs.trip(OpRmdir)
	return fs.server.Rmdir(dir, name)
}

// Rename implements fsapi.FileSystem.
func (fs *FS) Rename(odir fsapi.NodeID, oname string, ndir fsapi.NodeID, nname string) error {
	fs.trip(OpRename)
	return fs.server.Rename(odir, oname, ndir, nname)
}

// ReadDir implements fsapi.FileSystem (READDIR, one trip per batch).
func (fs *FS) ReadDir(dir fsapi.NodeID, cookie uint64, count int) ([]fsapi.DirEntry, uint64, bool, error) {
	fs.trip(OpReadDir)
	return fs.server.ReadDir(dir, cookie, count)
}

// ReadLink implements fsapi.FileSystem.
func (fs *FS) ReadLink(id fsapi.NodeID) (string, error) {
	fs.trip(OpReadLink)
	return fs.server.ReadLink(id)
}

// SetAttr implements fsapi.FileSystem.
func (fs *FS) SetAttr(id fsapi.NodeID, attr fsapi.SetAttr) (fsapi.NodeInfo, error) {
	fs.trip(OpSetAttr)
	return fs.server.SetAttr(id, attr)
}

// ReadAt implements fsapi.FileSystem.
func (fs *FS) ReadAt(id fsapi.NodeID, p []byte, off int64) (int, error) {
	fs.trip(OpReadAt)
	return fs.server.ReadAt(id, p, off)
}

// WriteAt implements fsapi.FileSystem.
func (fs *FS) WriteAt(id fsapi.NodeID, p []byte, off int64) (int, error) {
	fs.trip(OpWriteAt)
	return fs.server.WriteAt(id, p, off)
}

// Sync implements fsapi.FileSystem (COMMIT).
func (fs *FS) Sync() error {
	fs.trip(OpSync)
	return fs.server.Sync()
}

// StatFS implements fsapi.FileSystem, advertising the revalidation
// requirement that disables whole-path direct lookup (§4.3).
func (fs *FS) StatFS() fsapi.StatFS {
	st := fs.server.StatFS()
	st.Caps.Name = "remotefs"
	st.Caps.Revalidate = true
	return st
}
