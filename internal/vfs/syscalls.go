package vfs

import (
	"dircache/internal/fsapi"
	"dircache/internal/lsm"
)

// OpenFlag mirrors the open(2) flag set used by the workloads.
type OpenFlag uint32

// Open flags.
const (
	O_RDONLY OpenFlag = 0
	O_WRONLY OpenFlag = 1
	O_RDWR   OpenFlag = 2
	// O_ACCMODE masks the access mode bits.
	O_ACCMODE OpenFlag = 3

	O_CREAT     OpenFlag = 1 << 6
	O_EXCL      OpenFlag = 1 << 7
	O_TRUNC     OpenFlag = 1 << 9
	O_APPEND    OpenFlag = 1 << 10
	O_DIRECTORY OpenFlag = 1 << 16
	O_NOFOLLOW  OpenFlag = 1 << 17
)

// lockBig acquires the 2.6.36-era global lock around a mutation when that
// era is selected; other eras rely on finer locks.
func (k *Kernel) lockBig() func() {
	if k.cfg.SyncMode != SyncBigLock {
		return func() {}
	}
	k.big.Lock()
	return k.big.Unlock
}

// Stat resolves path (following symlinks) and returns its metadata.
func (t *Task) Stat(path string) (fsapi.NodeInfo, error) {
	ref, err := t.Walk(path, 0)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.NodeInfo{}, fsapi.ENOENT
	}
	return ino.Info(), nil
}

// Lstat is Stat without following a final symlink.
func (t *Task) Lstat(path string) (fsapi.NodeInfo, error) {
	ref, err := t.Walk(path, WalkNoFollow)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.NodeInfo{}, fsapi.ENOENT
	}
	return ino.Info(), nil
}

// StatAt resolves path relative to the directory handle dirf (fstatat).
// A nil dirf or an absolute path behaves like Stat.
func (t *Task) StatAt(dirf *File, path string, followLinks bool) (fsapi.NodeInfo, error) {
	var fl WalkFlags
	if !followLinks {
		fl = WalkNoFollow
	}
	ref, err := t.walkAt(dirf, path, fl)
	if err != nil {
		return fsapi.NodeInfo{}, err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.NodeInfo{}, fsapi.ENOENT
	}
	return ino.Info(), nil
}

// walkAt resolves path relative to an open directory handle, mirroring
// the *at() syscall family. The handle's dentry stays pinned by the open
// file for the duration.
func (t *Task) walkAt(dirf *File, path string, fl WalkFlags) (PathRef, error) {
	if dirf == nil || (len(path) > 0 && path[0] == '/') {
		return t.Walk(path, fl)
	}
	if !dirf.ref.D.IsDir() {
		return PathRef{}, fsapi.ENOTDIR
	}
	return t.WalkFrom(dirf.ref, path, fl)
}

// Access checks whether the task may access path with the given mask.
func (t *Task) Access(path string, mask lsm.Mask) error {
	ref, err := t.Walk(path, 0)
	if err != nil {
		return err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.ENOENT
	}
	return t.k.permission(t.Cred(), ref.Mnt, ino, mask)
}

// Readlink returns the target of a symlink.
func (t *Task) Readlink(path string) (string, error) {
	ref, err := t.Walk(path, WalkNoFollow)
	if err != nil {
		return "", err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return "", fsapi.ENOENT
	}
	if !ino.Mode().IsSymlink() {
		return "", fsapi.EINVAL
	}
	return t.k.readLinkBody(ref.D)
}

// Chmod updates permission bits. Directory permission changes invalidate
// cached prefix checks below the directory (§3.2) — the deliberately
// expensive case Figure 7 measures.
func (t *Task) Chmod(path string, mode fsapi.Mode) error {
	ref, err := t.Walk(path, 0)
	if err != nil {
		return err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.ENOENT
	}
	c := t.Cred()
	if !c.IsRoot() && c.UID != ino.UID() {
		return fsapi.EPERM
	}
	if err := mayWriteMnt(ref.Mnt); err != nil {
		return err
	}
	if ino.Mode().IsDir() {
		// A permission change retires nothing — the directory's table entry
		// and its descendants' stay (§3.2) — so unlike unlink, rmdir and
		// rename it ends without a reap.
		end := t.k.beginMutation(ref.D, InvalPerm)
		defer end.End()
	}
	unlock := t.k.lockBig()
	defer unlock()
	m := mode.Perm()
	info, err := ref.D.sb.fs.SetAttr(ino.ID(), fsapi.SetAttr{Mode: &m})
	if err != nil {
		return err
	}
	ino.applyInfo(info)
	return nil
}

// Chown updates ownership; like chmod on directories it invalidates
// descendant prefix checks.
func (t *Task) Chown(path string, uid, gid uint32) error {
	ref, err := t.Walk(path, 0)
	if err != nil {
		return err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.ENOENT
	}
	c := t.Cred()
	if !c.IsRoot() {
		// Unprivileged chown: only a no-op owner "change" to the same uid
		// with a group the caller belongs to.
		if c.UID != ino.UID() || uid != ino.UID() || !c.InGroup(gid) {
			return fsapi.EPERM
		}
	}
	if err := mayWriteMnt(ref.Mnt); err != nil {
		return err
	}
	if ino.Mode().IsDir() {
		end := t.k.beginMutation(ref.D, InvalPerm)
		defer end.End()
	}
	unlock := t.k.lockBig()
	defer unlock()
	info, err := ref.D.sb.fs.SetAttr(ino.ID(), fsapi.SetAttr{UID: &uid, GID: &gid})
	if err != nil {
		return err
	}
	ino.applyInfo(info)
	return nil
}

// Truncate sets a regular file's size.
func (t *Task) Truncate(path string, size int64) error {
	ref, err := t.Walk(path, 0)
	if err != nil {
		return err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.ENOENT
	}
	if err := mayWriteMnt(ref.Mnt); err != nil {
		return err
	}
	if err := t.k.permission(t.Cred(), ref.Mnt, ino, lsm.MayWrite); err != nil {
		return err
	}
	info, err := ref.D.sb.fs.SetAttr(ino.ID(), fsapi.SetAttr{Size: &size})
	if err != nil {
		return err
	}
	ino.applyInfo(info)
	return nil
}

// SetLabel attaches an LSM object label to path's inode (the analogue of
// setting a security xattr). Root only. Directory label changes invalidate
// descendant prefix checks, since LSM search decisions may depend on them.
func (t *Task) SetLabel(path, label string) error {
	if !t.Cred().IsRoot() {
		return fsapi.EPERM
	}
	ref, err := t.Walk(path, 0)
	if err != nil {
		return err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.ENOENT
	}
	if ino.Mode().IsDir() {
		end := t.k.beginMutation(ref.D, InvalPerm)
		defer end.End()
	}
	ino.SetLabel(label)
	return nil
}

// Chdir moves the task's working directory.
func (t *Task) Chdir(path string) error {
	ref, err := t.Walk(path, WalkDirectory)
	if err != nil {
		return err
	}
	if err := t.k.mayLookup(t.Cred(), ref.Mnt, ref.D.Inode()); err != nil {
		return err
	}
	t.setCwd(ref)
	return nil
}

// Chroot moves the task's root directory.
func (t *Task) Chroot(path string) error {
	if !t.Cred().IsRoot() {
		return fsapi.EPERM
	}
	ref, err := t.Walk(path, WalkDirectory)
	if err != nil {
		return err
	}
	t.setRoot(ref)
	t.k.chrootCount.Add(1)
	return nil
}

// Getcwd renders the task's working directory as a path from its root.
func (t *Task) Getcwd() string {
	root := t.Root()
	cur := t.Cwd()
	var comps []string
	for {
		if cur.D == root.D && cur.Mnt == root.Mnt {
			break
		}
		if cur.D == cur.Mnt.root {
			if cur.Mnt.parent == nil {
				break
			}
			cur = PathRef{Mnt: cur.Mnt.parent, D: cur.Mnt.mountpoint}
			continue
		}
		pn := cur.D.pn.Load()
		if pn.parent == nil {
			break
		}
		comps = append(comps, pn.name)
		cur = PathRef{Mnt: cur.Mnt, D: pn.parent}
	}
	if len(comps) == 0 {
		return "/"
	}
	n := 0
	for _, c := range comps {
		n += len(c) + 1
	}
	buf := make([]byte, 0, n)
	for i := len(comps) - 1; i >= 0; i-- {
		buf = append(buf, '/')
		buf = append(buf, comps[i]...)
	}
	return string(buf)
}
