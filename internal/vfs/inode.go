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
	// analogue of a cached security xattr); nil reads as unlabeled. A
	// pointer, not an atomic.Value, keeps the Inode in a 64-byte size
	// class with names beside it.
	label atomic.Pointer[string]

	// names counts the names inodeFor and holdInode handed out and put has
	// not taken back: one per live dentry naming the inode (hard links
	// share it) and one per open File, plus one per caller between inodeFor
	// and setInode. Under sb.mu.
	names int32
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
	if p := ino.label.Load(); p != nil {
		return *p
	}
	return ""
}

// SetLabel stores the object security label.
func (ino *Inode) SetLabel(l string) { ino.label.Store(&l) }

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

// refresh re-reads the metadata from the backend and reports whether the
// backend still knows the node.
func (ino *Inode) refresh() bool {
	info, err := ino.sb.fs.GetNode(ino.id)
	if err != nil {
		return false
	}
	ino.applyInfo(info)
	return true
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
// Mount points at one. The inode cache holds an inode while a cached
// dentry names it or an open File uses it (Inode.names): like i_count, the
// last of them that goes takes the inode with it.
type Super struct {
	id   uint64
	k    *Kernel // owning kernel: resolves packed dentry refs (alias targets)
	fs   fsapi.FileSystem
	caps fsapi.Capabilities

	root *Dentry

	mu     sync.Mutex
	icache map[fsapi.NodeID]*Inode
	// deletes counts icache deletions since the map was last rebuilt
	// (forget). Under mu.
	deletes int
}

// FS returns the low-level file system.
func (sb *Super) FS() fsapi.FileSystem { return sb.fs }

// Caps returns the FS capabilities recorded at mount time.
func (sb *Super) Caps() fsapi.Capabilities { return sb.caps }

// Root returns the root dentry of the superblock's dentry tree.
func (sb *Super) Root() *Dentry { return sb.root }

// inodeFor returns the cached Inode for info.ID, creating or refreshing it,
// with a name taken on it for the dentry the caller stores it in. A caller
// that ends up storing it nowhere gives the name back with put.
func (sb *Super) inodeFor(info fsapi.NodeInfo) *Inode {
	sb.mu.Lock()
	ino, ok := sb.icache[info.ID]
	if !ok {
		ino = &Inode{sb: sb, id: info.ID}
		sb.icache[info.ID] = ino
	}
	ino.names++
	sb.mu.Unlock()
	ino.applyInfo(info)
	return ino
}

// put gives back one name inodeFor took (nil-safe). The cache forgets the
// inode with its last name, unless forgetInode already did and a newer
// Inode holds the ID.
func (ino *Inode) put() {
	if ino == nil {
		return
	}
	sb := ino.sb
	sb.mu.Lock()
	if ino.names--; ino.names == 0 && sb.icache[ino.id] == ino {
		sb.forget(ino.id)
	}
	sb.mu.Unlock()
}

// forgetInode drops an inode from the cache once its last name is gone.
func (sb *Super) forgetInode(id fsapi.NodeID) {
	sb.mu.Lock()
	sb.forget(id)
	sb.mu.Unlock()
}

// icacheRebuildSlack is how many deletes past twice the live entries
// forget lets a map carry before it rebuilds it.
const icacheRebuildSlack = 1024

// forget deletes id from the cache (sb.mu held). A Go map keeps a deleted
// slot as a tombstone until the map grows, so a cache that evicts as fast
// as it fills would keep its tombstones: once the deletes since the last
// rebuild pass 2·len+icacheRebuildSlack, the live entries move to a fresh
// map.
func (sb *Super) forget(id fsapi.NodeID) {
	delete(sb.icache, id)
	if sb.deletes++; sb.deletes <= 2*len(sb.icache)+icacheRebuildSlack {
		return
	}
	fresh := make(map[fsapi.NodeID]*Inode, len(sb.icache))
	for id, ino := range sb.icache {
		fresh[id] = ino
	}
	sb.icache, sb.deletes = fresh, 0
}
