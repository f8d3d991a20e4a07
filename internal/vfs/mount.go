package vfs

import (
	"sync"

	"dircache/internal/sig"
)

// MountFlags carry the permission-relevant mount options the fastpath must
// be able to find for any dentry (§4.3).
type MountFlags uint32

const (
	// MntReadOnly rejects writes through this mount.
	MntReadOnly MountFlags = 1 << iota
	// MntNoSuid ignores setuid bits under this mount.
	MntNoSuid
	// MntNoExec denies execute permission under this mount.
	MntNoExec
)

// Mount is one vfsmount: a superblock attached at a mountpoint. Bind
// mounts are Mounts whose root is an arbitrary dentry of an existing
// superblock — the "mount alias" case of §4.3.
type Mount struct {
	id    uint64
	sb    *Super
	root  *Dentry // where this mount's subtree is rooted within sb
	flags MountFlags

	parent     *Mount  // mount containing the mountpoint (nil for ns root)
	mountpoint *Dentry // dentry in parent this mount covers
}

// ID returns the mount's unique identity.
func (m *Mount) ID() uint64 { return m.id }

// Super returns the mounted superblock.
func (m *Mount) Super() *Super { return m.sb }

// Root returns the dentry the mount is rooted at.
func (m *Mount) Root() *Dentry { return m.root }

// Flags returns the mount options.
func (m *Mount) Flags() MountFlags { return m.flags }

// Mountpoint returns the covered dentry in the parent mount (nil for the
// namespace root).
func (m *Mount) Mountpoint() *Dentry { return m.mountpoint }

// ParentMount returns the mount containing the mountpoint.
func (m *Mount) ParentMount() *Mount { return m.parent }

// PathRef is the (mount, dentry) pair that identifies a location — what
// Linux calls a struct path.
type PathRef struct {
	Mnt *Mount
	D   *Dentry
}

// mkey indexes the per-namespace mount table.
type mkey struct {
	parentMount uint64
	dentry      uint64
}

// Namespace is a mount namespace (§4.3): a private mount table and, once
// hooks are installed, a private direct lookup hash table.
type Namespace struct {
	id uint64

	// dlht is set once, before the namespace is reachable: by SetHooks for
	// the initial namespace, by clone for the others.
	dlht *Table[sig.Signature]

	mu     sync.RWMutex
	mounts map[mkey]*Mount
	root   *Mount
}

// ID returns the namespace identity.
func (ns *Namespace) ID() uint64 { return ns.id }

// RootMount returns the namespace's root mount.
func (ns *Namespace) RootMount() *Mount {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.root
}

// DLHT returns the namespace's direct lookup hash table: full-path
// signatures to dentries (§3.1, one per namespace §4.3), filled and
// emptied by the installed hooks. Nil while no hooks are installed.
func (ns *Namespace) DLHT() *Table[sig.Signature] { return ns.dlht }

// MountAt returns the mount covering dentry d in mount m within this
// namespace, or nil (exported for the fastpath hooks).
func (ns *Namespace) MountAt(m *Mount, d *Dentry) *Mount { return ns.mountAt(m, d) }

// mountAt returns the mount covering dentry d in mount m, or nil.
func (ns *Namespace) mountAt(m *Mount, d *Dentry) *Mount {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.mounts[mkey{m.id, d.id}]
}

// addMount installs child at (parent mount, mountpoint dentry).
func (ns *Namespace) addMount(child *Mount) {
	ns.mu.Lock()
	ns.mounts[mkey{child.parent.id, child.mountpoint.id}] = child
	ns.mu.Unlock()
	child.mountpoint.setFlags(DMounted)
}

// removeMount detaches child from the namespace. It does not clear
// DMounted on the mountpoint (other namespaces may still mount there);
// the flag is a hint, and a table probe resolves the truth.
func (ns *Namespace) removeMount(child *Mount) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	k := mkey{child.parent.id, child.mountpoint.id}
	if ns.mounts[k] != child {
		return false
	}
	delete(ns.mounts, k)
	return true
}

// hasMountsUnder reports whether any mount in the namespace sits on m
// (i.e., m is some mount's parent) — umount must refuse busy mounts.
func (ns *Namespace) hasMountsUnder(m *Mount) bool {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	for _, child := range ns.mounts {
		if child.parent == m {
			return true
		}
	}
	return false
}

// clone duplicates the namespace's mount tree into a new namespace of k
// with fresh Mount identities (what CLONE_NEWNS does), and its own DLHT if
// k has hooks. The dentry trees are shared — exactly the aliasing
// situation §4.3's per-namespace DLHTs and single-DLHT-membership rule
// address.
func (ns *Namespace) clone(k *Kernel) *Namespace {
	ns.mu.RLock()
	defer ns.mu.RUnlock()

	idGen := func() uint64 { return k.idGen.Add(1) }
	out := &Namespace{
		id:     idGen(),
		mounts: make(map[mkey]*Mount, len(ns.mounts)),
	}
	if k.hooks != nil {
		out.dlht = k.newDLHT()
	}
	// Map old mounts to their copies, walking parents first.
	copies := make(map[*Mount]*Mount, len(ns.mounts)+1)
	var copyMount func(m *Mount) *Mount
	copyMount = func(m *Mount) *Mount {
		if c, ok := copies[m]; ok {
			return c
		}
		c := &Mount{
			id:         idGen(),
			sb:         m.sb,
			root:       m.root,
			flags:      m.flags,
			mountpoint: m.mountpoint,
		}
		if m.parent != nil {
			c.parent = copyMount(m.parent)
		}
		copies[m] = c
		return c
	}
	out.root = copyMount(ns.root)
	for _, child := range ns.mounts {
		c := copyMount(child)
		out.mounts[mkey{c.parent.id, c.mountpoint.id}] = c
	}
	return out
}
