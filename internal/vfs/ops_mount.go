package vfs

import (
	"dircache/internal/fsapi"
)

// Mount attaches fs at path within the task's namespace. Mounting the same
// FS instance at multiple places creates mount aliases sharing one dentry
// tree (§4.3). Mount changes invalidate cached fastpath state below the
// mountpoint, since resolution under it changes meaning.
func (t *Task) Mount(fs fsapi.FileSystem, path string, flags MountFlags) (*Mount, error) {
	if !t.Cred().IsRoot() {
		return nil, fsapi.EPERM
	}
	k := t.k
	ref, err := t.Walk(path, WalkDirectory)
	if err != nil {
		return nil, err
	}
	ns := t.Namespace()
	if ns.mountAt(ref.Mnt, ref.D) != nil {
		return nil, fsapi.EBUSY // one mount per mountpoint per namespace
	}
	end := k.beginMutation(ref.D, InvalMount)
	defer end.End()

	sb := k.superFor(fs)
	m := &Mount{
		id:         k.idGen.Add(1),
		sb:         sb,
		root:       sb.root,
		flags:      flags,
		parent:     ref.Mnt,
		mountpoint: ref.D,
	}
	ns.addMount(m)
	return m, nil
}

// BindMount makes srcPath's subtree visible at dstPath — a mount alias on
// the same superblock (§4.3).
func (t *Task) BindMount(srcPath, dstPath string, flags MountFlags) (*Mount, error) {
	if !t.Cred().IsRoot() {
		return nil, fsapi.EPERM
	}
	k := t.k
	src, err := t.Walk(srcPath, WalkDirectory)
	if err != nil {
		return nil, err
	}
	dst, err := t.Walk(dstPath, WalkDirectory)
	if err != nil {
		return nil, err
	}
	ns := t.Namespace()
	if ns.mountAt(dst.Mnt, dst.D) != nil {
		return nil, fsapi.EBUSY
	}
	end := k.beginMutation(dst.D, InvalMount)
	defer end.End()

	m := &Mount{
		id:         k.idGen.Add(1),
		sb:         src.Mnt.sb,
		root:       src.D,
		flags:      flags,
		parent:     dst.Mnt,
		mountpoint: dst.D,
	}
	ns.addMount(m)
	k.aliasEpoch.Add(1)
	return m, nil
}

// Unmount detaches the mount whose root path resolves at path.
func (t *Task) Unmount(path string) error {
	if !t.Cred().IsRoot() {
		return fsapi.EPERM
	}
	k := t.k
	ref, err := t.Walk(path, WalkDirectory)
	if err != nil {
		return err
	}
	m := ref.Mnt
	if ref.D != m.root || m.parent == nil {
		return fsapi.EINVAL // not the root of a (non-namespace-root) mount
	}
	ns := t.Namespace()
	if ns.hasMountsUnder(m) {
		return fsapi.EBUSY
	}
	// Invalidate both sides: paths under the mountpoint change meaning,
	// and the mounted tree's cached full-path state becomes unreachable.
	end := k.beginMutation(m.mountpoint, InvalMount)
	defer end.End()
	endRoot := k.beginMutation(m.root, InvalMount)
	defer endRoot.End()
	if !ns.removeMount(m) {
		return fsapi.EINVAL
	}
	return nil
}
