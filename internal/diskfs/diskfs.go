package diskfs

import (
	"fmt"
	"sync"

	"dircache/internal/buffercache"
	"dircache/internal/fsapi"
)

// FS is an ext2-style fsapi.FileSystem over a buffer cache. A single lock
// serializes metadata operations, as in a simple journaling FS; the system
// under test (the directory cache) sits above and rarely reaches here.
type FS struct {
	bc *buffercache.Cache

	mu        sync.Mutex
	sb        super
	sbDirty   bool
	blockHint uint64
	inodeHint uint64
	rootIno   uint64

	// Open-unlinked-file support: retained nodes are not reclaimed until
	// the last release (in-memory only; a crash "loses" orphans exactly
	// as ext2 does before fsck).
	retained map[uint64]int
	orphans  map[uint64]bool

	// j is the metadata/data redo journal (nil when the volume was
	// formatted without one).
	j *journal
}

// txBegin/txEnd bracket one journaled mutation. Callers hold fs.mu.
func (fs *FS) txBegin() {
	if fs.j != nil {
		fs.j.begin()
	}
}

func (fs *FS) txEnd(err *error) {
	if fs.j == nil {
		return
	}
	if cerr := fs.j.commit(fs.checkpointLocked); cerr != nil && *err == nil {
		*err = cerr
	}
}

// checkpointLocked makes all cached state durable in place and rewinds the
// journal. Caller holds fs.mu.
func (fs *FS) checkpointLocked() error {
	if err := fs.syncSuperAlways(); err != nil {
		return err
	}
	if err := fs.bc.Flush(); err != nil {
		return err
	}
	return fs.j.reset()
}

// syncSuperAlways writes the superblock even when not marked dirty (the
// checkpoint must capture in-memory counters).
func (fs *FS) syncSuperAlways() error {
	fs.sbDirty = true
	return fs.syncSuper()
}

// attachJournal wires the journal to the buffer cache's write recorder.
func (fs *FS) attachJournal() {
	if fs.sb.JournalBlocks == 0 {
		return
	}
	fs.j = newJournal(fs.bc.Device(), fs.sb.JournalStart, fs.sb.JournalBlocks)
	fs.bc.SetRecorder(func(block int64, data []byte) {
		fs.j.record(block, data)
	})
}

var (
	_ fsapi.FileSystem   = (*FS)(nil)
	_ fsapi.NodeRetainer = (*FS)(nil)
)

// RetainNode implements fsapi.NodeRetainer.
func (fs *FS) RetainNode(id fsapi.NodeID) {
	fs.mu.Lock()
	fs.retained[uint64(id)]++
	fs.mu.Unlock()
}

// ReleaseNode implements fsapi.NodeRetainer.
func (fs *FS) ReleaseNode(id fsapi.NodeID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino := uint64(id)
	if fs.retained[ino] > 1 {
		fs.retained[ino]--
		return
	}
	delete(fs.retained, ino)
	if fs.orphans[ino] {
		delete(fs.orphans, ino)
		if di, err := fs.readInode(ino); err == nil {
			var retErr error
			fs.txBegin()
			_ = fs.truncateInode(&di)
			di = dinode{}
			_ = fs.writeInode(ino, &di)
			_ = fs.freeInode(ino)
			_ = fs.syncSuper()
			fs.txEnd(&retErr)
		}
	}
}

// Mkfs formats the device behind bc and returns a mounted FS. ninodes
// bounds the number of files; pass 0 for a default of one inode per 4
// data blocks.
func Mkfs(bc *buffercache.Cache, ninodes uint64) (*FS, error) {
	dev := bc.Device()
	bs := uint64(dev.BlockSize())
	if bs < 512 {
		return nil, fmt.Errorf("diskfs: block size %d too small", bs)
	}
	nblocks := uint64(dev.Blocks())
	if ninodes == 0 {
		ninodes = nblocks/4 + 16
	}

	bitsPerBlock := bs * 8
	inodeBitmapBlocks := (ninodes + bitsPerBlock - 1) / bitsPerBlock
	inodesPerBlock := bs / InodeSize
	inodeTableBlocks := (ninodes + inodesPerBlock - 1) / inodesPerBlock

	// Block bitmap covers only the data area; compute with one pass of
	// fixed-point iteration (layout: super | ibmap | bbmap | itable | data).
	blockBitmapBlocks := uint64(1)
	for {
		meta := 1 + inodeBitmapBlocks + blockBitmapBlocks + inodeTableBlocks
		if meta >= nblocks {
			return nil, fmt.Errorf("diskfs: device too small (%d blocks)", nblocks)
		}
		data := nblocks - meta
		need := (data + bitsPerBlock - 1) / bitsPerBlock
		if need <= blockBitmapBlocks {
			break
		}
		blockBitmapBlocks = need
	}

	jblocks := uint64(journalBlocks)
	if max := nblocks / 16; jblocks > max {
		jblocks = max
	}
	sb := super{
		BlockSize:         uint32(bs),
		Blocks:            nblocks,
		Inodes:            ninodes,
		InodeBitmapStart:  1,
		InodeBitmapBlocks: inodeBitmapBlocks,
		BlockBitmapStart:  1 + inodeBitmapBlocks,
		BlockBitmapBlocks: blockBitmapBlocks,
		InodeTableStart:   1 + inodeBitmapBlocks + blockBitmapBlocks,
		InodeTableBlocks:  inodeTableBlocks,
	}
	sb.JournalStart = sb.InodeTableStart + inodeTableBlocks
	sb.JournalBlocks = jblocks
	sb.DataStart = sb.JournalStart + jblocks
	if sb.DataStart >= nblocks {
		return nil, fmt.Errorf("diskfs: device too small for journal (%d blocks)", nblocks)
	}
	sb.FreeBlocks = nblocks - sb.DataStart
	sb.FreeInodes = ninodes - 2 // ino 0 reserved, ino 1 = root

	zero := make([]byte, bs)
	for b := uint64(1); b < sb.DataStart; b++ {
		if err := bc.Write(int64(b), zero); err != nil {
			return nil, err
		}
	}

	fs := &FS{bc: bc, sb: sb, rootIno: 1, retained: make(map[uint64]int), orphans: make(map[uint64]bool)}

	// Reserve ino 0 (never valid) and ino 1 (root) in the inode bitmap.
	if err := bc.Update(int64(sb.InodeBitmapStart), func(data []byte) {
		data[0] |= 0b11
	}); err != nil {
		return nil, err
	}

	root := dinode{
		Mode:  fsapi.MkMode(fsapi.TypeDirectory, 0o755),
		Nlink: 2,
		Mtime: 1,
	}
	fs.sb.Mtime = 1
	if err := fs.writeInode(1, &root); err != nil {
		return nil, err
	}
	fs.sbDirty = true
	if err := fs.syncSuper(); err != nil {
		return nil, err
	}
	if err := bc.Flush(); err != nil {
		return nil, err
	}
	fs.attachJournal()
	if fs.j != nil {
		if err := fs.j.reset(); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// Mount opens an existing diskfs from the device behind bc.
func Mount(bc *buffercache.Cache) (*FS, error) {
	var sb super
	var decErr error
	if err := bc.View(superBlock, func(data []byte) {
		decErr = sb.decode(data)
	}); err != nil {
		return nil, err
	}
	if decErr != nil {
		return nil, decErr
	}
	if sb.BlockSize != uint32(bc.Device().BlockSize()) {
		return nil, fmt.Errorf("diskfs: superblock block size %d != device %d",
			sb.BlockSize, bc.Device().BlockSize())
	}
	fs := &FS{bc: bc, sb: sb, rootIno: 1, retained: make(map[uint64]int), orphans: make(map[uint64]bool)}
	if sb.JournalBlocks > 0 {
		// Recover committed transactions before anything reads metadata,
		// writing recovered blocks straight to the device, then drop any
		// stale cached copies and reload the superblock.
		j := newJournal(bc.Device(), sb.JournalStart, sb.JournalBlocks)
		applied, err := j.replay(func(block int64, data []byte) error {
			return bc.Device().WriteBlock(block, data)
		})
		if err != nil {
			return nil, fmt.Errorf("diskfs: journal replay: %w", err)
		}
		if applied > 0 {
			bc.Drop()
			var decErr2 error
			if err := bc.View(superBlock, func(data []byte) {
				decErr2 = fs.sb.decode(data)
			}); err != nil {
				return nil, err
			}
			if decErr2 != nil {
				return nil, decErr2
			}
		}
		if err := j.reset(); err != nil {
			return nil, err
		}
	}
	fs.attachJournal()
	return fs, nil
}

// Cache exposes the underlying buffer cache (for cold-cache invalidation in
// experiments).
func (fs *FS) Cache() *buffercache.Cache { return fs.bc }

func (fs *FS) syncSuper() error {
	if !fs.sbDirty {
		return nil
	}
	buf := make([]byte, fs.sb.BlockSize)
	fs.sb.encode(buf)
	if err := fs.bc.Write(superBlock, buf); err != nil {
		return err
	}
	fs.sbDirty = false
	return nil
}

func (fs *FS) bumpMtime() uint64 {
	fs.sb.Mtime++
	fs.sbDirty = true
	return fs.sb.Mtime
}

// loadDir reads inode ino and verifies it is a directory.
func (fs *FS) loadDir(ino fsapi.NodeID) (dinode, error) {
	di, err := fs.readInode(uint64(ino))
	if err != nil {
		return dinode{}, err
	}
	if di.free() {
		return dinode{}, fsapi.ESTALE
	}
	if !di.Mode.IsDir() {
		return dinode{}, fsapi.ENOTDIR
	}
	return di, nil
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fsapi.EINVAL
	}
	if len(name) > MaxName {
		return fsapi.ENAMETOOLONG
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fsapi.EINVAL
		}
	}
	return nil
}

// Root implements fsapi.FileSystem.
func (fs *FS) Root() fsapi.NodeInfo {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	di, err := fs.readInode(fs.rootIno)
	if err != nil {
		return fsapi.NodeInfo{}
	}
	return di.info(fs.rootIno)
}

// GetNode implements fsapi.FileSystem.
func (fs *FS) GetNode(id fsapi.NodeID) (fsapi.NodeInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	di, err := fs.readInode(uint64(id))
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	if di.free() {
		return fsapi.NodeInfo{}, fsapi.ESTALE
	}
	return di.info(uint64(id)), nil
}

// Lookup implements fsapi.FileSystem.
func (fs *FS) Lookup(dir fsapi.NodeID, name string) (fsapi.NodeInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	di, err := fs.loadDir(dir)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	ino, _, err := fs.dirLookup(&di, name)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	child, err := fs.readInode(ino)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	return child.info(ino), nil
}

// create is the shared implementation of Create/Mkdir/Symlink.
func (fs *FS) create(dir fsapi.NodeID, name string, mode fsapi.Mode, uid, gid uint32, target string) (info fsapi.NodeInfo, retErr error) {
	if err := checkName(name); err != nil {
		return fsapi.NodeInfo{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	di, err := fs.loadDir(dir)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	if _, _, err := fs.dirLookup(&di, name); err == nil {
		return fsapi.NodeInfo{}, fsapi.EEXIST
	} else if !isNoEnt(err) {
		return fsapi.NodeInfo{}, err
	}
	fs.txBegin()
	defer fs.txEnd(&retErr)
	ino, err := fs.allocInode()
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	now := fs.bumpMtime()
	child := dinode{Mode: mode, UID: uid, GID: gid, Nlink: 1, Mtime: now}
	if mode.IsDir() {
		child.Nlink = 2
	}
	if mode.IsSymlink() {
		child.Size = uint64(len(target))
	}
	if err := fs.writeInode(ino, &child); err != nil {
		return fsapi.NodeInfo{}, err
	}
	if mode.IsSymlink() {
		if err := fs.writeData(ino, &child, []byte(target), 0); err != nil {
			return fsapi.NodeInfo{}, err
		}
		child.Size = uint64(len(target))
		if err := fs.writeInode(ino, &child); err != nil {
			return fsapi.NodeInfo{}, err
		}
	}
	if err := fs.dirInsert(uint64(dir), &di, name, ino, mode.Type()); err != nil {
		return fsapi.NodeInfo{}, err
	}
	di.Mtime = now
	if mode.IsDir() {
		di.Nlink++
	}
	if err := fs.writeInode(uint64(dir), &di); err != nil {
		return fsapi.NodeInfo{}, err
	}
	return child.info(ino), fs.syncSuper()
}

func isNoEnt(err error) bool {
	e, ok := err.(fsapi.Errno)
	return ok && e == fsapi.ENOENT
}

// Create implements fsapi.FileSystem.
func (fs *FS) Create(dir fsapi.NodeID, name string, mode fsapi.Mode, uid, gid uint32) (fsapi.NodeInfo, error) {
	return fs.create(dir, name, fsapi.MkMode(fsapi.TypeRegular, mode.Perm()), uid, gid, "")
}

// Mkdir implements fsapi.FileSystem.
func (fs *FS) Mkdir(dir fsapi.NodeID, name string, mode fsapi.Mode, uid, gid uint32) (fsapi.NodeInfo, error) {
	return fs.create(dir, name, fsapi.MkMode(fsapi.TypeDirectory, mode.Perm()), uid, gid, "")
}

// Symlink implements fsapi.FileSystem.
func (fs *FS) Symlink(dir fsapi.NodeID, name, target string, uid, gid uint32) (fsapi.NodeInfo, error) {
	if len(target) == 0 || len(target) > 4095 {
		return fsapi.NodeInfo{}, fsapi.EINVAL
	}
	return fs.create(dir, name, fsapi.MkMode(fsapi.TypeSymlink, 0o777), uid, gid, target)
}

// Link implements fsapi.FileSystem.
func (fs *FS) Link(dir fsapi.NodeID, name string, node fsapi.NodeID) (info fsapi.NodeInfo, retErr error) {
	if err := checkName(name); err != nil {
		return fsapi.NodeInfo{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.txBegin()
	defer fs.txEnd(&retErr)
	di, err := fs.loadDir(dir)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	tgt, err := fs.readInode(uint64(node))
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	if tgt.free() {
		return fsapi.NodeInfo{}, fsapi.ESTALE
	}
	if tgt.Mode.IsDir() {
		return fsapi.NodeInfo{}, fsapi.EPERM
	}
	if _, _, err := fs.dirLookup(&di, name); err == nil {
		return fsapi.NodeInfo{}, fsapi.EEXIST
	} else if !isNoEnt(err) {
		return fsapi.NodeInfo{}, err
	}
	if err := fs.dirInsert(uint64(dir), &di, name, uint64(node), tgt.Mode.Type()); err != nil {
		return fsapi.NodeInfo{}, err
	}
	now := fs.bumpMtime()
	tgt.Nlink++
	tgt.Mtime = now
	di.Mtime = now
	if err := fs.writeInode(uint64(node), &tgt); err != nil {
		return fsapi.NodeInfo{}, err
	}
	if err := fs.writeInode(uint64(dir), &di); err != nil {
		return fsapi.NodeInfo{}, err
	}
	return tgt.info(uint64(node)), fs.syncSuper()
}

// dropInode decrements nlink and frees the inode + data when it reaches
// zero (or 1 for directories, whose self-link doesn't pin them).
func (fs *FS) dropInode(ino uint64, di *dinode) error {
	di.Nlink--
	gone := di.Nlink == 0 || (di.Mode.IsDir() && di.Nlink <= 1)
	if gone {
		if fs.retained[ino] > 0 {
			// Orphan: keep data until the last handle releases it.
			fs.orphans[ino] = true
			di.Nlink = 0
			return fs.writeInode(ino, di)
		}
		if err := fs.truncateInode(di); err != nil {
			return err
		}
		*di = dinode{}
		if err := fs.writeInode(ino, di); err != nil {
			return err
		}
		return fs.freeInode(ino)
	}
	return fs.writeInode(ino, di)
}

// Unlink implements fsapi.FileSystem.
func (fs *FS) Unlink(dir fsapi.NodeID, name string) (retErr error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.txBegin()
	defer fs.txEnd(&retErr)
	di, err := fs.loadDir(dir)
	if err != nil {
		return err
	}
	ino, _, err := fs.dirLookup(&di, name)
	if err != nil {
		return err
	}
	child, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	if child.Mode.IsDir() {
		return fsapi.EISDIR
	}
	if err := fs.dirRemove(&di, name); err != nil {
		return err
	}
	di.Mtime = fs.bumpMtime()
	if err := fs.writeInode(uint64(dir), &di); err != nil {
		return err
	}
	if err := fs.dropInode(ino, &child); err != nil {
		return err
	}
	return fs.syncSuper()
}

// Rmdir implements fsapi.FileSystem.
func (fs *FS) Rmdir(dir fsapi.NodeID, name string) (retErr error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.txBegin()
	defer fs.txEnd(&retErr)
	di, err := fs.loadDir(dir)
	if err != nil {
		return err
	}
	ino, _, err := fs.dirLookup(&di, name)
	if err != nil {
		return err
	}
	child, err := fs.readInode(ino)
	if err != nil {
		return err
	}
	if !child.Mode.IsDir() {
		return fsapi.ENOTDIR
	}
	empty, err := fs.dirEmpty(&child)
	if err != nil {
		return err
	}
	if !empty {
		return fsapi.ENOTEMPTY
	}
	if err := fs.dirRemove(&di, name); err != nil {
		return err
	}
	di.Nlink--
	di.Mtime = fs.bumpMtime()
	if err := fs.writeInode(uint64(dir), &di); err != nil {
		return err
	}
	child.Nlink = 0
	if err := fs.truncateInode(&child); err != nil {
		return err
	}
	child = dinode{}
	if err := fs.writeInode(ino, &child); err != nil {
		return err
	}
	if err := fs.freeInode(ino); err != nil {
		return err
	}
	return fs.syncSuper()
}

// Rename implements fsapi.FileSystem.
func (fs *FS) Rename(odir fsapi.NodeID, oname string, ndir fsapi.NodeID, nname string) (retErr error) {
	if err := checkName(nname); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.txBegin()
	defer fs.txEnd(&retErr)
	od, err := fs.loadDir(odir)
	if err != nil {
		return err
	}
	srcIno, srcType, err := fs.dirLookup(&od, oname)
	if err != nil {
		return err
	}
	var nd dinode
	sameDir := odir == ndir
	if sameDir {
		nd = od
	} else {
		nd, err = fs.loadDir(ndir)
		if err != nil {
			return err
		}
	}

	if tgtIno, _, err := fs.dirLookup(&nd, nname); err == nil {
		if tgtIno == srcIno {
			return nil
		}
		tgt, err := fs.readInode(tgtIno)
		if err != nil {
			return err
		}
		src, err := fs.readInode(srcIno)
		if err != nil {
			return err
		}
		switch {
		case tgt.Mode.IsDir() && !src.Mode.IsDir():
			return fsapi.EISDIR
		case !tgt.Mode.IsDir() && src.Mode.IsDir():
			return fsapi.ENOTDIR
		case tgt.Mode.IsDir():
			empty, err := fs.dirEmpty(&tgt)
			if err != nil {
				return err
			}
			if !empty {
				return fsapi.ENOTEMPTY
			}
		}
		if err := fs.dirRemove(&nd, nname); err != nil {
			return err
		}
		if tgt.Mode.IsDir() {
			nd.Nlink--
			tgt.Nlink = 1 // collapse to just the self-link, then drop
		}
		if err := fs.dropInode(tgtIno, &tgt); err != nil {
			return err
		}
	} else if !isNoEnt(err) {
		return err
	}

	if err := fs.dirRemove(&od, oname); err != nil {
		return err
	}
	if sameDir {
		nd = od
	}
	if err := fs.dirInsert(uint64(ndir), &nd, nname, srcIno, srcType); err != nil {
		return err
	}
	now := fs.bumpMtime()
	if srcType == fsapi.TypeDirectory && !sameDir {
		od.Nlink--
		nd.Nlink++
	}
	od.Mtime = now
	nd.Mtime = now
	if sameDir {
		od = nd
		if err := fs.writeInode(uint64(odir), &od); err != nil {
			return err
		}
	} else {
		if err := fs.writeInode(uint64(odir), &od); err != nil {
			return err
		}
		if err := fs.writeInode(uint64(ndir), &nd); err != nil {
			return err
		}
	}
	src, err := fs.readInode(srcIno)
	if err != nil {
		return err
	}
	src.Mtime = now
	if err := fs.writeInode(srcIno, &src); err != nil {
		return err
	}
	return fs.syncSuper()
}

// ReadDir implements fsapi.FileSystem. The cookie encodes
// (block << 32 | offset) of the next dirent to visit.
func (fs *FS) ReadDir(dir fsapi.NodeID, cookie uint64, count int) ([]fsapi.DirEntry, uint64, bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	di, err := fs.loadDir(dir)
	if err != nil {
		return nil, 0, false, err
	}
	if count <= 0 {
		count = 1 << 30
	}
	startBlk := cookie >> 32
	startOff := int(cookie & 0xffffffff)
	var out []fsapi.DirEntry
	next := cookie
	done := true
	err = fs.dirScan(&di, func(blk uint64, off int, ino uint64, typ fsapi.FileType, name string) bool {
		if blk < startBlk || (blk == startBlk && off < startOff) {
			return false
		}
		if len(out) >= count {
			next = blk<<32 | uint64(off)
			done = false
			return true
		}
		out = append(out, fsapi.DirEntry{Name: name, ID: fsapi.NodeID(ino), Type: typ})
		return false
	})
	if err != nil {
		return nil, 0, false, err
	}
	if done {
		next = fs.dirBlocks(&di) << 32
	}
	return out, next, done, nil
}

// ReadLink implements fsapi.FileSystem.
func (fs *FS) ReadLink(id fsapi.NodeID) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	di, err := fs.readInode(uint64(id))
	if err != nil {
		return "", err
	}
	if di.free() {
		return "", fsapi.ESTALE
	}
	if !di.Mode.IsSymlink() {
		return "", fsapi.EINVAL
	}
	buf := make([]byte, di.Size)
	if _, err := fs.readData(&di, buf, 0); err != nil {
		return "", err
	}
	return string(buf), nil
}

// SetAttr implements fsapi.FileSystem.
func (fs *FS) SetAttr(id fsapi.NodeID, attr fsapi.SetAttr) (info fsapi.NodeInfo, retErr error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.txBegin()
	defer fs.txEnd(&retErr)
	di, err := fs.readInode(uint64(id))
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	if di.free() {
		return fsapi.NodeInfo{}, fsapi.ESTALE
	}
	if attr.Mode != nil {
		di.Mode = fsapi.MkMode(di.Mode.Type(), attr.Mode.Perm())
	}
	if attr.UID != nil {
		di.UID = *attr.UID
	}
	if attr.GID != nil {
		di.GID = *attr.GID
	}
	if attr.Size != nil {
		if !di.Mode.IsRegular() || *attr.Size < 0 {
			return fsapi.NodeInfo{}, fsapi.EINVAL
		}
		if err := fs.truncateTo(&di, uint64(*attr.Size)); err != nil {
			return fsapi.NodeInfo{}, err
		}
	}
	di.Mtime = fs.bumpMtime()
	if err := fs.writeInode(uint64(id), &di); err != nil {
		return fsapi.NodeInfo{}, err
	}
	return di.info(uint64(id)), fs.syncSuper()
}

// Sync implements fsapi.FileSystem: a full checkpoint (all cached state
// durable in place, journal rewound).
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.j != nil {
		return fs.checkpointLocked()
	}
	if err := fs.syncSuper(); err != nil {
		return err
	}
	return fs.bc.Flush()
}

// StatFS implements fsapi.FileSystem.
func (fs *FS) StatFS() fsapi.StatFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fsapi.StatFS{
		Blocks:     fs.sb.Blocks,
		FreeBlocks: fs.sb.FreeBlocks,
		Inodes:     fs.sb.Inodes,
		FreeInodes: fs.sb.FreeInodes,
		BlockSize:  int(fs.sb.BlockSize),
		MaxNameLen: MaxName,
		Caps:       fsapi.Capabilities{Name: "diskfs"},
	}
}
