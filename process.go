package dircache

import (
	"fmt"
	"math/rand"
	"sync"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/lsm"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// Creds are process credentials. Label is the subject security label
// consumed by registered LSM policies ("" = unconfined).
type Creds struct {
	UID    uint32
	GID    uint32
	Groups []uint32
	Label  string
}

// RootCreds returns uid/gid 0.
func RootCreds() Creds { return Creds{} }

// UserCreds returns unix-style single-user credentials: uid with a
// matching primary gid, the primary gid mirrored into the supplementary
// groups (as login(1) does), plus any extra supplementary groups. Root
// (uid 0) gets no implicit groups.
func UserCreds(uid uint32, groups ...uint32) Creds {
	c := Creds{UID: uid, GID: uid}
	if uid != 0 {
		c.Groups = append([]uint32{uid}, groups...)
	} else {
		c.Groups = append([]uint32(nil), groups...)
	}
	return c
}

func (c Creds) toCred() *cred.Cred {
	return cred.New(c.UID, c.GID, c.Groups, c.Label)
}

// AccessMode is the mask for Access checks.
type AccessMode = lsm.Mask

// Access mask bits.
const (
	X_OK AccessMode = lsm.MayExec
	W_OK AccessMode = lsm.MayWrite
	R_OK AccessMode = lsm.MayRead
)

// OpenFlag is the open(2)-style flag word.
type OpenFlag uint32

// Open flags.
const (
	O_RDONLY    = OpenFlag(vfs.O_RDONLY)
	O_WRONLY    = OpenFlag(vfs.O_WRONLY)
	O_RDWR      = OpenFlag(vfs.O_RDWR)
	O_CREAT     = OpenFlag(vfs.O_CREAT)
	O_EXCL      = OpenFlag(vfs.O_EXCL)
	O_TRUNC     = OpenFlag(vfs.O_TRUNC)
	O_APPEND    = OpenFlag(vfs.O_APPEND)
	O_DIRECTORY = OpenFlag(vfs.O_DIRECTORY)
	O_NOFOLLOW  = OpenFlag(vfs.O_NOFOLLOW)
)

// MountFlag carries mount options.
type MountFlag uint32

// Mount flags.
const (
	MountReadOnly = MountFlag(vfs.MntReadOnly)
	MountNoSuid   = MountFlag(vfs.MntNoSuid)
	MountNoExec   = MountFlag(vfs.MntNoExec)
)

// Process issues path-based operations against a System, carrying
// credentials, a working directory, a root directory, and a mount
// namespace — exactly the task state the kernel's VFS consults.
type Process struct {
	sys *System
	t   *vfs.Task

	mu  sync.Mutex
	rng *rand.Rand
}

// System returns the owning System.
func (p *Process) System() *System { return p.sys }

// Fork clones the process; the child shares credentials (and therefore a
// prefix check cache, §4.1).
func (p *Process) Fork() *Process {
	return &Process{sys: p.sys, t: p.t.Fork()}
}

// Exit releases the process's directory references.
func (p *Process) Exit() { p.t.Exit() }

// ArmTrace installs (nil clears) an externally owned telemetry span on
// the process's next kernel walk: the walk annotates its stage events
// into the span in place and the span's owner finishes it. Used by the
// 9P server to stitch wire spans to the walks they trigger.
func (p *Process) ArmTrace(tr *telemetry.WalkTrace) { p.t.ArmTrace(tr) }

// SetCreds commits new credentials through the copy-on-write discipline:
// if they equal the current ones, the current credential (and its PCC) is
// kept — the paper's commit_creds dedup.
func (p *Process) SetCreds(c Creds) {
	old := p.t.Cred()
	prep := old.Prepare()
	prep.UID, prep.GID, prep.Groups, prep.Security = c.UID, c.GID, c.Groups, c.Label
	p.t.SetCred(cred.Commit(old, prep))
}

// Stat returns metadata for path, following symlinks.
func (p *Process) Stat(path string) (FileInfo, error) {
	ni, err := p.t.Stat(path)
	return infoFrom(ni), err
}

// Lstat returns metadata for path without following a final symlink.
func (p *Process) Lstat(path string) (FileInfo, error) {
	ni, err := p.t.Lstat(path)
	return infoFrom(ni), err
}

// Access checks permission for the given mask.
func (p *Process) Access(path string, mask AccessMode) error {
	return p.t.Access(path, mask)
}

// Open opens (optionally creating) a file.
func (p *Process) Open(path string, flags OpenFlag, perm uint32) (*File, error) {
	f, err := p.t.Open(path, vfs.OpenFlag(flags), fsapi.Mode(perm))
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// Create makes an empty regular file (failing if it exists).
func (p *Process) Create(path string, perm uint32) error {
	return p.t.Create(path, fsapi.Mode(perm))
}

// WriteFile creates/truncates path with the given contents.
func (p *Process) WriteFile(path string, data []byte, perm uint32) error {
	f, err := p.Open(path, O_CREAT|O_TRUNC|O_WRONLY, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads the whole file at path.
func (p *Process) ReadFile(path string) ([]byte, error) {
	f, err := p.Open(path, O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size)
	n, err := f.ReadAt(buf, 0)
	return buf[:n], err
}

// Mkdir creates a directory.
func (p *Process) Mkdir(path string, perm uint32) error {
	return p.t.Mkdir(path, fsapi.Mode(perm))
}

// MkdirAll creates a directory and any missing parents.
func (p *Process) MkdirAll(path string, perm uint32) error {
	if err := p.t.Mkdir(path, fsapi.Mode(perm)); err == nil ||
		fsapi.ToErrno(err) == fsapi.EEXIST {
		return nil
	}
	// Build up from the root, component by component.
	var prefix string
	rest := path
	if len(rest) > 0 && rest[0] == '/' {
		prefix = "/"
	}
	for {
		var comp string
		comp, rest = splitComponent(rest)
		if comp == "" {
			return nil
		}
		if prefix == "" || prefix == "/" {
			prefix += comp
		} else {
			prefix += "/" + comp
		}
		if err := p.t.Mkdir(prefix, fsapi.Mode(perm)); err != nil &&
			fsapi.ToErrno(err) != fsapi.EEXIST {
			return err
		}
	}
}

func splitComponent(s string) (string, string) {
	i := 0
	for i < len(s) && s[i] == '/' {
		i++
	}
	j := i
	for j < len(s) && s[j] != '/' {
		j++
	}
	return s[i:j], s[j:]
}

// Rmdir removes an empty directory.
func (p *Process) Rmdir(path string) error { return p.t.Rmdir(path) }

// Unlink removes a file.
func (p *Process) Unlink(path string) error { return p.t.Unlink(path) }

// RemoveAll removes path and everything under it (rm -r).
func (p *Process) RemoveAll(path string) error {
	info, err := p.Lstat(path)
	if err != nil {
		if fsapi.ToErrno(err) == fsapi.ENOENT {
			return nil
		}
		return err
	}
	if info.Type != TypeDirectory {
		return p.Unlink(path)
	}
	ents, err := p.ReadDir(path)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := p.RemoveAll(path + "/" + e.Name); err != nil {
			return err
		}
	}
	return p.Rmdir(path)
}

// Rename moves oldPath to newPath.
func (p *Process) Rename(oldPath, newPath string) error {
	return p.t.Rename(oldPath, newPath)
}

// Symlink creates a symbolic link at linkPath pointing at target.
func (p *Process) Symlink(target, linkPath string) error {
	return p.t.Symlink(target, linkPath)
}

// Readlink returns a symlink's target.
func (p *Process) Readlink(path string) (string, error) {
	return p.t.Readlink(path)
}

// Link creates a hard link.
func (p *Process) Link(oldPath, newPath string) error {
	return p.t.Link(oldPath, newPath)
}

// Chmod changes permission bits.
func (p *Process) Chmod(path string, perm uint32) error {
	return p.t.Chmod(path, fsapi.Mode(perm))
}

// Chown changes ownership.
func (p *Process) Chown(path string, uid, gid uint32) error {
	return p.t.Chown(path, uid, gid)
}

// Truncate resizes a regular file.
func (p *Process) Truncate(path string, size int64) error {
	return p.t.Truncate(path, size)
}

// SetLabel attaches an LSM object label to path (root only).
func (p *Process) SetLabel(path, label string) error {
	return p.t.SetLabel(path, label)
}

// Chdir changes the working directory.
func (p *Process) Chdir(path string) error { return p.t.Chdir(path) }

// Getcwd reports the working directory.
func (p *Process) Getcwd() string { return p.t.Getcwd() }

// Chroot changes the process root (root only).
func (p *Process) Chroot(path string) error { return p.t.Chroot(path) }

// ReadDir lists a directory (one-shot convenience over Open+ReadDir).
func (p *Process) ReadDir(path string) ([]DirEntry, error) {
	f, err := p.Open(path, O_RDONLY|O_DIRECTORY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.ReadDirAll()
}

// StatAt is fstatat: resolve path relative to dirf (nil = cwd).
func (p *Process) StatAt(dirf *File, path string, followLinks bool) (FileInfo, error) {
	var vf *vfs.File
	if dirf != nil {
		vf = dirf.f
	}
	ni, err := p.t.StatAt(vf, path, followLinks)
	return infoFrom(ni), err
}

// OpenAt opens path relative to dirf (nil = like Open), the openat(2)
// shape used by traversal tools.
func (p *Process) OpenAt(dirf *File, path string, flags OpenFlag, perm uint32) (*File, error) {
	var vf *vfs.File
	if dirf != nil {
		vf = dirf.f
	}
	f, err := p.t.OpenAt(vf, path, vfs.OpenFlag(flags), fsapi.Mode(perm))
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// Mkstemp creates a uniquely named file in dir with the given prefix,
// mirroring mkstemp(3): random suffixes retried under O_EXCL.
func (p *Process) Mkstemp(dir, prefix string) (*File, string, error) {
	p.mu.Lock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(0x7e3a9))
	}
	rng := p.rng
	p.mu.Unlock()
	for attempt := 0; attempt < 100; attempt++ {
		p.mu.Lock()
		suffix := rng.Int63n(1 << 30)
		p.mu.Unlock()
		name := fmt.Sprintf("%s/%s%08x", dir, prefix, suffix)
		f, err := p.Open(name, O_CREAT|O_EXCL|O_RDWR, 0o600)
		if err == nil {
			return f, name, nil
		}
		if fsapi.ToErrno(err) != fsapi.EEXIST {
			return nil, "", err
		}
	}
	return nil, "", fsapi.EEXIST
}

// Mount attaches a backend at path (root only).
func (p *Process) Mount(b *Backend, path string, flags MountFlag) error {
	_, err := p.t.Mount(b.fs, path, vfs.MountFlags(flags))
	return err
}

// BindMount exposes srcPath's subtree at dstPath (root only).
func (p *Process) BindMount(srcPath, dstPath string, flags MountFlag) error {
	_, err := p.t.BindMount(srcPath, dstPath, vfs.MountFlags(flags))
	return err
}

// Unmount detaches the mount rooted at path (root only).
func (p *Process) Unmount(path string) error { return p.t.Unmount(path) }

// UnshareNamespace gives the process a private mount namespace.
func (p *Process) UnshareNamespace() { p.t.UnshareNamespace() }
