package vfs

import (
	"sync"
	"sync/atomic"

	"dircache/internal/fsapi"
	"dircache/internal/lsm"
)

// Inode is the VFS in-memory inode: cached metadata for one low-level FS
// node. Fields are atomics so the lock-free walk can read permission bits
// without locks, mirroring RCU-walk reading i_mode/i_uid directly.
type Inode struct {
	sb *Super
	id fsapi.NodeID

	mode  atomic.Uint32
	uid   atomic.Uint32
	gid   atomic.Uint32
	nlink atomic.Uint32
	size  atomic.Int64
	mtime atomic.Uint64

	// label is the object security label consumed by LSM modules (the
	// analogue of a cached security xattr).
	label atomic.Value // string
}

// ID returns the low-level FS node ID (inode number).
func (ino *Inode) ID() fsapi.NodeID { return ino.id }

// Super returns the owning superblock.
func (ino *Inode) Super() *Super { return ino.sb }

// Mode returns the cached mode.
func (ino *Inode) Mode() fsapi.Mode { return fsapi.Mode(ino.mode.Load()) }

// UID returns the cached owner.
func (ino *Inode) UID() uint32 { return ino.uid.Load() }

// GID returns the cached group.
func (ino *Inode) GID() uint32 { return ino.gid.Load() }

// Size returns the cached size.
func (ino *Inode) Size() int64 { return ino.size.Load() }

// Nlink returns the cached link count.
func (ino *Inode) Nlink() uint32 { return ino.nlink.Load() }

// Mtime returns the cached logical modification stamp.
func (ino *Inode) Mtime() uint64 { return ino.mtime.Load() }

// Label returns the object security label ("" if unlabeled).
func (ino *Inode) Label() string {
	if v := ino.label.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// SetLabel stores the object security label.
func (ino *Inode) SetLabel(l string) { ino.label.Store(l) }

// View renders the inode for LSM hooks.
func (ino *Inode) View() lsm.InodeView {
	return lsm.InodeView{
		ID:    ino.id,
		Mode:  ino.Mode(),
		UID:   ino.UID(),
		GID:   ino.GID(),
		Label: ino.Label(),
	}
}

// applyInfo refreshes the cached metadata from a low-level FS report.
func (ino *Inode) applyInfo(info fsapi.NodeInfo) {
	ino.mode.Store(uint32(info.Mode))
	ino.uid.Store(info.UID)
	ino.gid.Store(info.GID)
	ino.nlink.Store(info.Nlink)
	ino.size.Store(info.Size)
	ino.mtime.Store(info.Mtime)
}

// Info snapshots the cached metadata as a NodeInfo.
func (ino *Inode) Info() fsapi.NodeInfo {
	return fsapi.NodeInfo{
		ID:    ino.id,
		Mode:  ino.Mode(),
		UID:   ino.UID(),
		GID:   ino.GID(),
		Nlink: ino.Nlink(),
		Size:  ino.Size(),
		Mtime: ino.Mtime(),
	}
}

// Super is a mounted file system instance: the low-level FS, its inode
// cache, and the root of its dentry tree. Bind mounts share a Super; each
// Mount points at one.
type Super struct {
	id   uint64
	k    *Kernel // owning kernel: resolves packed dentry refs (alias targets)
	fs   fsapi.FileSystem
	caps fsapi.Capabilities

	root *Dentry

	mu     sync.Mutex
	icache map[fsapi.NodeID]*Inode
}

// FS returns the low-level file system.
func (sb *Super) FS() fsapi.FileSystem { return sb.fs }

// Caps returns the FS capabilities recorded at mount time.
func (sb *Super) Caps() fsapi.Capabilities { return sb.caps }

// Root returns the root dentry of the superblock's dentry tree.
func (sb *Super) Root() *Dentry { return sb.root }

// inodeFor returns the cached Inode for info.ID, creating or refreshing it.
func (sb *Super) inodeFor(info fsapi.NodeInfo) *Inode {
	sb.mu.Lock()
	ino, ok := sb.icache[info.ID]
	if !ok {
		ino = &Inode{sb: sb, id: info.ID}
		sb.icache[info.ID] = ino
	}
	sb.mu.Unlock()
	ino.applyInfo(info)
	return ino
}

// forgetInode drops an inode from the cache once its last name is gone.
func (sb *Super) forgetInode(id fsapi.NodeID) {
	sb.mu.Lock()
	delete(sb.icache, id)
	sb.mu.Unlock()
}
