package vfs

import (
	"dircache/internal/cred"
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
	return t.statFrom(PathRef{}, path, 0)
}

// Lstat is Stat without following a final symlink.
func (t *Task) Lstat(path string) (fsapi.NodeInfo, error) {
	return t.statFrom(PathRef{}, path, WalkNoFollow)
}

// StatAt resolves path relative to the directory handle dirf (fstatat).
// A nil dirf or an absolute path behaves like Stat. The handle's dentry
// stays pinned by the open file for the duration.
func (t *Task) StatAt(dirf *File, path string, followLinks bool) (fsapi.NodeInfo, error) {
	var fl WalkFlags
	if !followLinks {
		fl = WalkNoFollow
	}
	if dirf == nil || (len(path) > 0 && path[0] == '/') {
		return t.statFrom(PathRef{}, path, fl)
	}
	if !dirf.ref.D.IsDir() {
		return fsapi.NodeInfo{}, fsapi.ENOTDIR
	}
	return t.statFrom(dirf.ref, path, fl)
}

// statFrom walks path from at, as WalkFrom does, and reads the result's
// metadata inside the walk's own epoch section. Once the section closes,
// an eviction can retire the walked dentry's slot and a later tenant
// reuse it, so a stat that read the inode afterwards could read a dead
// dentry's nil inode and answer ENOENT for a file that exists.
func (t *Task) statFrom(at PathRef, path string, fl WalkFlags) (fsapi.NodeInfo, error) {
	k := t.k
	ep := k.gate.Enter()
	evictions := k.lru.Epoch()
	var info fsapi.NodeInfo
	ref, err := t.walkInSection(at, path, fl)
	if err == nil {
		if ino := ref.D.Inode(); ino != nil {
			info = ino.Info()
		} else {
			err = fsapi.ENOENT
		}
	}
	k.leaveSection(ep, evictions)
	return info, err
}

// The operations below use what their walk returned after it returns, so
// each runs inside one epoch section of its own (as the mutations do):
// the walked dentry's slot cannot get a new tenant before they finish.

// Access checks whether the task may access path with the given mask.
func (t *Task) Access(path string, mask lsm.Mask) error {
	defer t.k.leaveSection(t.k.gate.Enter(), t.k.lru.Epoch())
	ref, err := t.walkInSection(PathRef{}, path, 0)
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
	defer t.k.leaveSection(t.k.gate.Enter(), t.k.lru.Epoch())
	ref, err := t.walkInSection(PathRef{}, path, WalkNoFollow)
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
	m := mode.Perm()
	return t.setPerm(path, func(c *cred.Cred, ino *Inode) bool {
		return c.IsRoot() || c.UID == ino.UID()
	}, fsapi.SetAttr{Mode: &m})
}

// Chown updates ownership; like chmod on directories it invalidates
// descendant prefix checks.
func (t *Task) Chown(path string, uid, gid uint32) error {
	return t.setPerm(path, func(c *cred.Cred, ino *Inode) bool {
		// Unprivileged chown: only a no-op owner "change" to the same uid
		// with a group the caller belongs to.
		return c.IsRoot() || c.UID == ino.UID() && uid == ino.UID() && c.InGroup(gid)
	}, fsapi.SetAttr{UID: &uid, GID: &gid})
}

// setPerm is Chmod's and Chown's body: allowed is the ownership rule (EPERM
// when it says no) and attr the attributes to set.
func (t *Task) setPerm(path string, allowed func(*cred.Cred, *Inode) bool, attr fsapi.SetAttr) error {
	defer t.k.leaveSection(t.k.gate.Enter(), t.k.lru.Epoch())
	ref, err := t.walkInSection(PathRef{}, path, 0)
	if err != nil {
		return err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.ENOENT
	}
	if !allowed(t.Cred(), ino) {
		return fsapi.EPERM
	}
	if err := mayWriteMnt(ref.Mnt); err != nil {
		return err
	}
	isDir := ino.Mode().IsDir()
	if isDir {
		// A permission change retires nothing — the directory's table entry
		// and its descendants' stay (§3.2) — so unlike unlink, rmdir and
		// rename it ends without a reap.
		end := t.k.beginMutation(ref.D, InvalPerm)
		defer end.End()
	}
	unlock := t.k.lockBig()
	defer unlock()
	info, err := ref.D.sb.fs.SetAttr(ino.ID(), attr)
	if err != nil {
		return err
	}
	ino.applyInfo(info)
	if !isDir {
		t.k.publish(ref.D, "", InvalPerm.String()) // peers may hold the old mode
	}
	return nil
}

// Truncate sets a regular file's size.
func (t *Task) Truncate(path string, size int64) error {
	defer t.k.leaveSection(t.k.gate.Enter(), t.k.lru.Epoch())
	ref, err := t.walkInSection(PathRef{}, path, 0)
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
	defer t.k.leaveSection(t.k.gate.Enter(), t.k.lru.Epoch())
	ref, err := t.walkInSection(PathRef{}, path, 0)
	if err != nil {
		return err
	}
	ino := ref.D.Inode()
	if ino == nil {
		return fsapi.ENOENT
	}
	isDir := ino.Mode().IsDir()
	if isDir {
		end := t.k.beginMutation(ref.D, InvalPerm)
		defer end.End()
	}
	ino.SetLabel(label)
	if !isDir {
		t.k.publish(ref.D, "", InvalPerm.String()) // as in setPerm
	}
	return nil
}

// Chdir moves the task's working directory.
func (t *Task) Chdir(path string) error {
	defer t.k.leaveSection(t.k.gate.Enter(), t.k.lru.Epoch())
	ref, err := t.walkInSection(PathRef{}, path, WalkDirectory)
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
	defer t.k.leaveSection(t.k.gate.Enter(), t.k.lru.Epoch())
	ref, err := t.walkInSection(PathRef{}, path, WalkDirectory)
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
