// Package memfs is an in-memory file system: the stand-in for ext4 with a
// warm page cache. A directory-cache miss serviced by memfs performs real
// work (directory map probe, metadata translation into fsapi.NodeInfo) and
// optionally charges a configurable per-operation cost to a virtual clock,
// reproducing the paper's observation that even a page-cache-warm miss
// "must be translated to a generic format" and is therefore much more
// expensive than a dcache hit.
package memfs

import (
	"sync"
	"sync/atomic"

	"dircache/internal/fsapi"
	"dircache/internal/vclock"
)

// Options configures a memfs instance.
type Options struct {
	// OpCostNS is charged to the attached vclock per metadata operation
	// (lookup, readdir batch, create, ...). Zero means free.
	OpCostNS int64
	// NoNegatives marks the FS as one for which the stock kernel would not
	// cache negative dentries (used to build proc/sys-like instances).
	NoNegatives bool
	// Name appears in StatFS capabilities.
	Name string
	// MaxNameLen bounds component names; 0 means 255.
	MaxNameLen int
}

type node struct {
	info   fsapi.NodeInfo
	data   []byte
	target string // symlink target

	// Directory contents as a packed dirent log, mirroring an ext-style
	// directory block sitting in the page cache: every Lookup linearly
	// scans and decodes records, every ReadDir re-parses them — the
	// "must be translated to a generic format" cost the paper ascribes
	// to page-cache-warm misses. Record layout:
	//
	//	[8B ino][1B namelen][1B type][name bytes]
	//
	// A zero ino marks a tombstone (namelen preserved for skipping);
	// tombstones are compacted when they dominate.
	dirents []byte
	live    int
}

const direntHdr = 10

// appendDirent encodes one record.
func appendDirent(buf []byte, ino fsapi.NodeID, typ fsapi.FileType, name string) []byte {
	var hdr [direntHdr]byte
	v := uint64(ino)
	for i := 0; i < 8; i++ {
		hdr[i] = byte(v >> (8 * i))
	}
	hdr[8] = byte(len(name))
	hdr[9] = byte(typ)
	buf = append(buf, hdr[:]...)
	return append(buf, name...)
}

// direntHeader decodes the header of the record at off: its ino (zero
// for a tombstone), type and name length.
func direntHeader(buf []byte, off int) (ino fsapi.NodeID, typ fsapi.FileType, nameLen int) {
	v := uint64(0)
	for i := 0; i < 8; i++ {
		v |= uint64(buf[off+i]) << (8 * i)
	}
	return fsapi.NodeID(v), fsapi.FileType(buf[off+9]), int(buf[off+8])
}

// scanDirent decodes the record at off, name included, returning the next
// offset.
func scanDirent(buf []byte, off int) (ino fsapi.NodeID, typ fsapi.FileType, name string, next int) {
	ino, typ, nameLen := direntHeader(buf, off)
	next = off + direntHdr + nameLen
	if ino != 0 {
		name = string(buf[off+direntHdr : next])
	}
	return ino, typ, name, next
}

// findDirent scans for name, returning its record offset or -1. It decodes
// each record's header and compares the name in place: a name is only
// copied out of the log when a caller keeps it.
func (n *node) findDirent(name string) (fsapi.NodeID, fsapi.FileType, int) {
	buf := n.dirents
	for off := 0; off < len(buf); {
		ino, typ, nameLen := direntHeader(buf, off)
		if ino != 0 && nameLen == len(name) &&
			string(buf[off+direntHdr:off+direntHdr+nameLen]) == name {
			return ino, typ, off
		}
		off += direntHdr + nameLen
	}
	return 0, 0, -1
}

// FS is an in-memory fsapi.FileSystem. Safe for concurrent use.
type FS struct {
	opts  Options
	clock atomic.Pointer[vclock.Run]

	mu       sync.RWMutex
	nodes    map[fsapi.NodeID]*node
	retained map[fsapi.NodeID]int
	nextID   uint64
	mtime    uint64 // logical modification clock
	root     fsapi.NodeID
}

var (
	_ fsapi.FileSystem   = (*FS)(nil)
	_ fsapi.NodeRetainer = (*FS)(nil)
)

// New creates an empty memfs whose root is owned by uid/gid 0 with mode
// 0755.
func New(opts Options) *FS {
	if opts.Name == "" {
		opts.Name = "memfs"
	}
	if opts.MaxNameLen == 0 {
		opts.MaxNameLen = 255
	}
	fs := &FS{
		opts:     opts,
		nodes:    make(map[fsapi.NodeID]*node),
		retained: make(map[fsapi.NodeID]int),
		nextID:   1,
	}
	fs.root = fs.newNodeLocked(fsapi.MkMode(fsapi.TypeDirectory, 0o755), 0, 0).info.ID
	return fs
}

// SetClock directs per-op cost charges to run (nil detaches).
func (fs *FS) SetClock(run *vclock.Run) { fs.clock.Store(run) }

func (fs *FS) charge() {
	if fs.opts.OpCostNS != 0 {
		fs.clock.Load().Charge(fs.opts.OpCostNS)
	}
}

// newNodeLocked allocates a node; caller holds fs.mu.
func (fs *FS) newNodeLocked(mode fsapi.Mode, uid, gid uint32) *node {
	id := fsapi.NodeID(fs.nextID)
	fs.nextID++
	fs.mtime++
	n := &node{info: fsapi.NodeInfo{
		ID: id, Mode: mode, UID: uid, GID: gid, Nlink: 1, Mtime: fs.mtime,
	}}
	if mode.IsDir() {
		n.info.Nlink = 2 // "." and the parent's entry
	}
	fs.nodes[id] = n
	return n
}

func (fs *FS) dirLocked(dir fsapi.NodeID) (*node, error) {
	d, ok := fs.nodes[dir]
	if !ok {
		return nil, fsapi.ESTALE
	}
	if !d.info.Mode.IsDir() {
		return nil, fsapi.ENOTDIR
	}
	return d, nil
}

func (fs *FS) checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fsapi.EINVAL
	}
	if len(name) > fs.opts.MaxNameLen {
		return fsapi.ENAMETOOLONG
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fsapi.EINVAL
		}
	}
	return nil
}

// addChildLocked appends a dirent for name→id.
func (fs *FS) addChildLocked(d *node, name string, id fsapi.NodeID) {
	typ := fsapi.TypeRegular
	if c, ok := fs.nodes[id]; ok {
		typ = c.info.Mode.Type()
	}
	d.dirents = appendDirent(d.dirents, id, typ, name)
	d.live++
	d.info.Size = int64(len(d.dirents))
}

// removeChildLocked tombstones the dirent findDirent found at off, then
// compacts the log if tombstones dominate it — which moves every record,
// so an offset found before the call is stale after it.
func (d *node) removeChildLocked(off int) {
	d.tombstoneLocked(off)
	d.compactLocked()
}

// tombstoneLocked zeroes the ino of the dirent at off.
func (d *node) tombstoneLocked(off int) {
	for i := 0; i < 8; i++ {
		d.dirents[off+i] = 0
	}
	d.live--
}

// compactLocked rewrites the log without its tombstones when they
// dominate it.
func (d *node) compactLocked() {
	if d.live*3*direntHdr < len(d.dirents) && len(d.dirents) > 256 {
		kept := make([]byte, 0, len(d.dirents)/2)
		for o := 0; o < len(d.dirents); {
			ino, _, nameLen := direntHeader(d.dirents, o)
			next := o + direntHdr + nameLen
			if ino != 0 {
				kept = append(kept, d.dirents[o:next]...)
			}
			o = next
		}
		d.dirents = kept
	}
	d.info.Size = int64(len(d.dirents))
}

// Root implements fsapi.FileSystem.
func (fs *FS) Root() fsapi.NodeInfo {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.nodes[fs.root].info
}

// GetNode implements fsapi.FileSystem.
func (fs *FS) GetNode(id fsapi.NodeID) (fsapi.NodeInfo, error) {
	fs.charge()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.nodes[id]
	if !ok {
		return fsapi.NodeInfo{}, fsapi.ESTALE
	}
	return n.info, nil
}

// Lookup implements fsapi.FileSystem.
func (fs *FS) Lookup(dir fsapi.NodeID, name string) (fsapi.NodeInfo, error) {
	fs.charge()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, err := fs.dirLocked(dir)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	id, _, off := d.findDirent(name)
	if off < 0 {
		return fsapi.NodeInfo{}, fsapi.ENOENT
	}
	return fs.nodes[id].info, nil
}

// Create implements fsapi.FileSystem.
func (fs *FS) Create(dir fsapi.NodeID, name string, mode fsapi.Mode, uid, gid uint32) (fsapi.NodeInfo, error) {
	fs.charge()
	if err := fs.checkName(name); err != nil {
		return fsapi.NodeInfo{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirLocked(dir)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	if _, _, off := d.findDirent(name); off >= 0 {
		return fsapi.NodeInfo{}, fsapi.EEXIST
	}
	n := fs.newNodeLocked(fsapi.MkMode(fsapi.TypeRegular, mode.Perm()), uid, gid)
	fs.addChildLocked(d, name, n.info.ID)
	d.info.Mtime = fs.mtime
	return n.info, nil
}

// Mkdir implements fsapi.FileSystem.
func (fs *FS) Mkdir(dir fsapi.NodeID, name string, mode fsapi.Mode, uid, gid uint32) (fsapi.NodeInfo, error) {
	fs.charge()
	if err := fs.checkName(name); err != nil {
		return fsapi.NodeInfo{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirLocked(dir)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	if _, _, off := d.findDirent(name); off >= 0 {
		return fsapi.NodeInfo{}, fsapi.EEXIST
	}
	n := fs.newNodeLocked(fsapi.MkMode(fsapi.TypeDirectory, mode.Perm()), uid, gid)
	fs.addChildLocked(d, name, n.info.ID)
	d.info.Nlink++
	d.info.Mtime = fs.mtime
	return n.info, nil
}

// Symlink implements fsapi.FileSystem.
func (fs *FS) Symlink(dir fsapi.NodeID, name, target string, uid, gid uint32) (fsapi.NodeInfo, error) {
	fs.charge()
	if err := fs.checkName(name); err != nil {
		return fsapi.NodeInfo{}, err
	}
	if len(target) == 0 || len(target) > 4095 {
		return fsapi.NodeInfo{}, fsapi.EINVAL
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirLocked(dir)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	if _, _, off := d.findDirent(name); off >= 0 {
		return fsapi.NodeInfo{}, fsapi.EEXIST
	}
	n := fs.newNodeLocked(fsapi.MkMode(fsapi.TypeSymlink, 0o777), uid, gid)
	n.target = target
	n.info.Size = int64(len(target))
	fs.addChildLocked(d, name, n.info.ID)
	d.info.Mtime = fs.mtime
	return n.info, nil
}

// Link implements fsapi.FileSystem.
func (fs *FS) Link(dir fsapi.NodeID, name string, target fsapi.NodeID) (fsapi.NodeInfo, error) {
	fs.charge()
	if err := fs.checkName(name); err != nil {
		return fsapi.NodeInfo{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirLocked(dir)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	n, ok := fs.nodes[target]
	if !ok {
		return fsapi.NodeInfo{}, fsapi.ESTALE
	}
	if n.info.Mode.IsDir() {
		return fsapi.NodeInfo{}, fsapi.EPERM
	}
	if _, _, off := d.findDirent(name); off >= 0 {
		return fsapi.NodeInfo{}, fsapi.EEXIST
	}
	n.info.Nlink++
	fs.mtime++
	n.info.Mtime = fs.mtime
	fs.addChildLocked(d, name, n.info.ID)
	d.info.Mtime = fs.mtime
	return n.info, nil
}

func (fs *FS) dropRefLocked(n *node) {
	n.info.Nlink--
	if n.info.Nlink == 0 || (n.info.Mode.IsDir() && n.info.Nlink <= 1) {
		if fs.retained[n.info.ID] > 0 {
			n.info.Nlink = 0 // orphan: reclaimed at last release
			return
		}
		delete(fs.nodes, n.info.ID)
	}
}

// RetainNode implements fsapi.NodeRetainer.
func (fs *FS) RetainNode(id fsapi.NodeID) {
	fs.mu.Lock()
	fs.retained[id]++
	fs.mu.Unlock()
}

// ReleaseNode implements fsapi.NodeRetainer.
func (fs *FS) ReleaseNode(id fsapi.NodeID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.retained[id] <= 1 {
		delete(fs.retained, id)
		if n, ok := fs.nodes[id]; ok && n.info.Nlink == 0 {
			delete(fs.nodes, id)
		}
		return
	}
	fs.retained[id]--
}

// Unlink implements fsapi.FileSystem.
func (fs *FS) Unlink(dir fsapi.NodeID, name string) error {
	fs.charge()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirLocked(dir)
	if err != nil {
		return err
	}
	id, _, off := d.findDirent(name)
	if off < 0 {
		return fsapi.ENOENT
	}
	n := fs.nodes[id]
	if n.info.Mode.IsDir() {
		return fsapi.EISDIR
	}
	d.removeChildLocked(off)
	fs.mtime++
	d.info.Mtime = fs.mtime
	fs.dropRefLocked(n)
	return nil
}

// Rmdir implements fsapi.FileSystem.
func (fs *FS) Rmdir(dir fsapi.NodeID, name string) error {
	fs.charge()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.dirLocked(dir)
	if err != nil {
		return err
	}
	id, _, off := d.findDirent(name)
	if off < 0 {
		return fsapi.ENOENT
	}
	n := fs.nodes[id]
	if !n.info.Mode.IsDir() {
		return fsapi.ENOTDIR
	}
	if n.live != 0 {
		return fsapi.ENOTEMPTY
	}
	d.removeChildLocked(off)
	d.info.Nlink--
	fs.mtime++
	d.info.Mtime = fs.mtime
	delete(fs.nodes, id)
	return nil
}

// Rename implements fsapi.FileSystem.
func (fs *FS) Rename(odir fsapi.NodeID, oname string, ndir fsapi.NodeID, nname string) error {
	fs.charge()
	if err := fs.checkName(nname); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	od, err := fs.dirLocked(odir)
	if err != nil {
		return err
	}
	nd, err := fs.dirLocked(ndir)
	if err != nil {
		return err
	}
	id, _, ooff := od.findDirent(oname)
	if ooff < 0 {
		return fsapi.ENOENT
	}
	src := fs.nodes[id]

	if tid, _, noff := nd.findDirent(nname); noff >= 0 {
		if tid == id {
			return nil // renaming onto the same node is a no-op
		}
		tgt := fs.nodes[tid]
		switch {
		case tgt.info.Mode.IsDir() && !src.info.Mode.IsDir():
			return fsapi.EISDIR
		case !tgt.info.Mode.IsDir() && src.info.Mode.IsDir():
			return fsapi.ENOTDIR
		case tgt.info.Mode.IsDir() && tgt.live != 0:
			return fsapi.ENOTEMPTY
		}
		// Tombstone both records before either log compacts: od and nd
		// may be one directory, whose offsets a compaction would move.
		nd.tombstoneLocked(noff)
		if tgt.info.Mode.IsDir() {
			nd.info.Nlink--
			delete(fs.nodes, tid)
		} else {
			fs.dropRefLocked(tgt)
		}
	}

	od.tombstoneLocked(ooff)
	od.compactLocked()
	nd.compactLocked()
	fs.addChildLocked(nd, nname, id)
	if src.info.Mode.IsDir() && od != nd {
		od.info.Nlink--
		nd.info.Nlink++
	}
	fs.mtime++
	od.info.Mtime = fs.mtime
	nd.info.Mtime = fs.mtime
	src.info.Mtime = fs.mtime
	return nil
}

// ReadDir implements fsapi.FileSystem. The cookie is an index into the
// order slice; tombstones are skipped, so entries created before the cursor
// and deleted mid-scan are not re-observed, matching getdents semantics
// closely enough for the workloads.
func (fs *FS) ReadDir(dir fsapi.NodeID, cookie uint64, count int) ([]fsapi.DirEntry, uint64, bool, error) {
	fs.charge()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, err := fs.dirLocked(dir)
	if err != nil {
		return nil, 0, false, err
	}
	if count <= 0 {
		count = d.live
	}
	var out []fsapi.DirEntry
	off := int(cookie)
	for off >= 0 && off+direntHdr <= len(d.dirents) && len(out) < count {
		ino, typ, name, next := scanDirent(d.dirents, off)
		if next > len(d.dirents) {
			// A cursor not on a record boundary (arbitrary seek): treat
			// as end of directory, like getdents with a bogus offset.
			off = len(d.dirents)
			break
		}
		if ino != 0 {
			out = append(out, fsapi.DirEntry{Name: name, ID: ino, Type: typ})
		}
		off = next
	}
	if off < 0 || off > len(d.dirents) {
		off = len(d.dirents)
	}
	return out, uint64(off), off >= len(d.dirents), nil
}

// ReadLink implements fsapi.FileSystem.
func (fs *FS) ReadLink(id fsapi.NodeID) (string, error) {
	fs.charge()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.nodes[id]
	if !ok {
		return "", fsapi.ESTALE
	}
	if !n.info.Mode.IsSymlink() {
		return "", fsapi.EINVAL
	}
	return n.target, nil
}

// SetAttr implements fsapi.FileSystem.
func (fs *FS) SetAttr(id fsapi.NodeID, attr fsapi.SetAttr) (fsapi.NodeInfo, error) {
	fs.charge()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[id]
	if !ok {
		return fsapi.NodeInfo{}, fsapi.ESTALE
	}
	if attr.Mode != nil {
		n.info.Mode = fsapi.MkMode(n.info.Mode.Type(), attr.Mode.Perm())
	}
	if attr.UID != nil {
		n.info.UID = *attr.UID
	}
	if attr.GID != nil {
		n.info.GID = *attr.GID
	}
	if attr.Size != nil {
		if !n.info.Mode.IsRegular() {
			return fsapi.NodeInfo{}, fsapi.EINVAL
		}
		sz := *attr.Size
		if sz < 0 {
			return fsapi.NodeInfo{}, fsapi.EINVAL
		}
		if int64(len(n.data)) > sz {
			n.data = n.data[:sz]
		} else {
			n.data = append(n.data, make([]byte, sz-int64(len(n.data)))...)
		}
		n.info.Size = sz
	}
	fs.mtime++
	n.info.Mtime = fs.mtime
	return n.info, nil
}

// ReadAt implements fsapi.FileSystem.
func (fs *FS) ReadAt(id fsapi.NodeID, p []byte, off int64) (int, error) {
	fs.charge()
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.nodes[id]
	if !ok {
		return 0, fsapi.ESTALE
	}
	if n.info.Mode.IsDir() {
		return 0, fsapi.EISDIR
	}
	if off < 0 {
		return 0, fsapi.EINVAL
	}
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(p, n.data[off:]), nil
}

// WriteAt implements fsapi.FileSystem.
func (fs *FS) WriteAt(id fsapi.NodeID, p []byte, off int64) (int, error) {
	fs.charge()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[id]
	if !ok {
		return 0, fsapi.ESTALE
	}
	if !n.info.Mode.IsRegular() {
		return 0, fsapi.EINVAL
	}
	if off < 0 {
		return 0, fsapi.EINVAL
	}
	if need := off + int64(len(p)); need > int64(len(n.data)) {
		n.data = append(n.data, make([]byte, need-int64(len(n.data)))...)
		n.info.Size = need
	}
	copy(n.data[off:], p)
	fs.mtime++
	n.info.Mtime = fs.mtime
	return len(p), nil
}

// Sync implements fsapi.FileSystem (memfs has no backing store).
func (fs *FS) Sync() error { return nil }

// StatFS implements fsapi.FileSystem.
func (fs *FS) StatFS() fsapi.StatFS {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fsapi.StatFS{
		Inodes:     uint64(len(fs.nodes)),
		BlockSize:  4096,
		MaxNameLen: fs.opts.MaxNameLen,
		Caps: fsapi.Capabilities{
			NoNegatives: fs.opts.NoNegatives,
			Name:        fs.opts.Name,
		},
	}
}
