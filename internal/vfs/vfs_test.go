package vfs

import (
	"errors"
	"fmt"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
)

// newKernel builds a kernel over a fresh memfs with a small standard tree:
//
//	/home/alice/{notes.txt, projects/code.go}
//	/home/bob/secret/key         (bob-only: /home/bob is 0700)
//	/etc/passwd
//	/tmp                         (world-writable, sticky)
//	/usr/include/sys/types.h
func newKernel(t *testing.T, cfg Config) (*Kernel, *Task) {
	t.Helper()
	k := NewKernel(cfg, memfs.New(memfs.Options{}))
	root := k.NewTask(cred.Root())
	mk := func(path string, mode fsapi.Mode) {
		if err := root.Mkdir(path, mode); err != nil {
			t.Fatalf("mkdir %s: %v", path, err)
		}
	}
	mk("/home", 0o755)
	mk("/home/alice", 0o755)
	mk("/home/alice/projects", 0o755)
	mk("/home/bob", 0o700)
	mk("/home/bob/secret", 0o700)
	mk("/etc", 0o755)
	mk("/tmp", 0o777|fsapi.ModeSticky)
	mk("/usr", 0o755)
	mk("/usr/include", 0o755)
	mk("/usr/include/sys", 0o755)
	touch := func(path string, mode fsapi.Mode) {
		if err := root.Create(path, mode); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
	}
	touch("/home/alice/notes.txt", 0o644)
	touch("/home/alice/projects/code.go", 0o644)
	touch("/home/bob/secret/key", 0o600)
	touch("/etc/passwd", 0o644)
	touch("/usr/include/sys/types.h", 0o644)
	if err := root.Chown("/home/alice", 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/home/bob", 1001, 1001); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/home/bob/secret", 1001, 1001); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/home/bob/secret/key", 1001, 1001); err != nil {
		t.Fatal(err)
	}
	return k, root
}

func alice(k *Kernel) *Task { return k.NewTask(cred.New(1000, 1000, nil, "")) }
func bob(k *Kernel) *Task   { return k.NewTask(cred.New(1001, 1001, nil, "")) }

func TestStatBasics(t *testing.T) {
	for _, mode := range []SyncMode{SyncRCU, SyncBucketLock, SyncBigLock} {
		t.Run(mode.String(), func(t *testing.T) {
			k, root := newKernel(t, Config{SyncMode: mode})
			ni, err := root.Stat("/usr/include/sys/types.h")
			if err != nil {
				t.Fatal(err)
			}
			if !ni.Mode.IsRegular() || ni.Mode.Perm() != 0o644 {
				t.Fatalf("stat: %+v", ni)
			}
			di, err := root.Stat("/usr/include")
			if err != nil || !di.Mode.IsDir() {
				t.Fatalf("dir stat: %+v %v", di, err)
			}
			if _, err := root.Stat("/usr/include/sys/types.h/x"); !errors.Is(err, fsapi.ENOTDIR) {
				t.Fatalf("descend through file: %v", err)
			}
			if _, err := root.Stat("/no/such/path"); !errors.Is(err, fsapi.ENOENT) {
				t.Fatalf("missing: %v", err)
			}
			if _, err := root.Stat(""); !errors.Is(err, fsapi.ENOENT) {
				t.Fatalf("empty path: %v", err)
			}
			// Second stat of the same path must be a pure cache hit.
			before := k.Stats().FSLookups
			if _, err := root.Stat("/usr/include/sys/types.h"); err != nil {
				t.Fatal(err)
			}
			if k.Stats().FSLookups != before {
				t.Fatal("warm stat reached the low-level FS")
			}
		})
	}
}

func TestPathOddities(t *testing.T) {
	_, root := newKernel(t, Config{})
	for _, p := range []string{
		"/usr//include//sys/types.h",
		"/usr/./include/./sys/types.h",
		"/usr/include/../include/sys/types.h",
		"//usr/include/sys/types.h",
	} {
		if _, err := root.Stat(p); err != nil {
			t.Fatalf("stat %q: %v", p, err)
		}
	}
	// Trailing slash on a file is ENOTDIR; on a dir it's fine.
	if _, err := root.Stat("/etc/passwd/"); !errors.Is(err, fsapi.ENOTDIR) {
		t.Fatalf("trailing slash on file: %v", err)
	}
	if _, err := root.Stat("/etc/"); err != nil {
		t.Fatalf("trailing slash on dir: %v", err)
	}
	if _, err := root.Stat("/"); err != nil {
		t.Fatalf("root stat: %v", err)
	}
	// Dot-dot above root stays at root.
	if _, err := root.Stat("/../../etc/passwd"); err != nil {
		t.Fatalf("dotdot above root: %v", err)
	}
}

func TestNegativeDentries(t *testing.T) {
	k, root := newKernel(t, Config{})
	if _, err := root.Stat("/etc/shadow"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	fsBefore := k.Stats().FSLookups
	negBefore := k.Stats().NegativeHits
	if _, err := root.Stat("/etc/shadow"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	if k.Stats().FSLookups != fsBefore {
		t.Fatal("repeated miss reached the FS despite negative dentry")
	}
	if k.Stats().NegativeHits != negBefore+1 {
		t.Fatal("negative hit not counted")
	}
	// Creating the file positivizes the negative dentry.
	if err := root.Create("/etc/shadow", 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/etc/shadow"); err != nil {
		t.Fatalf("stat after create over negative: %v", err)
	}
}

func TestDACPermissions(t *testing.T) {
	k, root := newKernel(t, Config{})
	a := alice(k)
	b := bob(k)
	// Alice reads her own file but not Bob's.
	if _, err := a.Stat("/home/alice/notes.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stat("/home/bob/secret/key"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("prefix check failed to deny alice: %v", err)
	}
	if _, err := b.Stat("/home/bob/secret/key"); err != nil {
		t.Fatalf("bob denied his own file: %v", err)
	}
	// Root passes everywhere.
	if _, err := root.Stat("/home/bob/secret/key"); err != nil {
		t.Fatal(err)
	}
	// Write permission checks on open.
	f, err := a.Open("/etc/passwd", O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := a.Open("/etc/passwd", O_WRONLY, 0); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("write open of root-owned file: %v", err)
	}
}

func TestChmodChangesAccess(t *testing.T) {
	k, root := newKernel(t, Config{})
	a := alice(k)
	if _, err := a.Stat("/home/bob/secret/key"); !errors.Is(err, fsapi.EACCES) {
		t.Fatal("precondition failed")
	}
	if err := root.Chmod("/home/bob", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Chmod("/home/bob/secret", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Chmod("/home/bob/secret/key", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stat("/home/bob/secret/key"); err != nil {
		t.Fatalf("after chmod: %v", err)
	}
	// And back: access revoked again (slowpath rechecks every time).
	if err := root.Chmod("/home/bob", 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stat("/home/bob/secret/key"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("after revoke: %v", err)
	}
}

func TestStickyBitDelete(t *testing.T) {
	k, root := newKernel(t, Config{})
	if err := root.Create("/tmp/alice-file", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/tmp/alice-file", 1000, 1000); err != nil {
		t.Fatal(err)
	}
	b := bob(k)
	if err := b.Unlink("/tmp/alice-file"); !errors.Is(err, fsapi.EPERM) {
		t.Fatalf("sticky dir let bob delete alice's file: %v", err)
	}
	a := alice(k)
	if err := a.Unlink("/tmp/alice-file"); err != nil {
		t.Fatalf("owner delete in sticky dir: %v", err)
	}
}

func TestSymlinks(t *testing.T) {
	k, root := newKernel(t, Config{})
	if err := root.Symlink("/usr/include", "/inc"); err != nil {
		t.Fatal(err)
	}
	if err := root.Symlink("sys/types.h", "/usr/include/th"); err != nil {
		t.Fatal(err)
	}
	// Absolute link mid-path.
	if _, err := root.Stat("/inc/sys/types.h"); err != nil {
		t.Fatalf("through absolute link: %v", err)
	}
	// Relative link as final component.
	ni, err := root.Stat("/usr/include/th")
	if err != nil || !ni.Mode.IsRegular() {
		t.Fatalf("through relative link: %+v %v", ni, err)
	}
	// Lstat sees the link itself.
	li, err := root.Lstat("/usr/include/th")
	if err != nil || !li.Mode.IsSymlink() {
		t.Fatalf("lstat: %+v %v", li, err)
	}
	// Readlink.
	target, err := root.Readlink("/inc")
	if err != nil || target != "/usr/include" {
		t.Fatalf("readlink: %q %v", target, err)
	}
	if _, err := root.Readlink("/etc/passwd"); !errors.Is(err, fsapi.EINVAL) {
		t.Fatalf("readlink on file: %v", err)
	}
	// Dangling link: lstat ok, stat ENOENT.
	if err := root.Symlink("/nowhere", "/dang"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Lstat("/dang"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/dang"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("dangling stat: %v", err)
	}
	// Loop: ELOOP.
	if err := root.Symlink("/loopB", "/loopA"); err != nil {
		t.Fatal(err)
	}
	if err := root.Symlink("/loopA", "/loopB"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/loopA"); !errors.Is(err, fsapi.ELOOP) {
		t.Fatalf("loop: %v", err)
	}
	_ = k
}

func TestSymlinkPermissionOnTargetPath(t *testing.T) {
	k, root := newKernel(t, Config{})
	if err := root.Symlink("/home/bob/secret/key", "/pub-link"); err != nil {
		t.Fatal(err)
	}
	a := alice(k)
	// The link is world-followable but the target path's prefix denies.
	if _, err := a.Stat("/pub-link"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("symlink bypassed prefix check: %v", err)
	}
}

func TestChdirRelativeAndGetcwd(t *testing.T) {
	k, root := newKernel(t, Config{})
	a := alice(k)
	if err := a.Chdir("/home/alice"); err != nil {
		t.Fatal(err)
	}
	if got := a.Getcwd(); got != "/home/alice" {
		t.Fatalf("getcwd: %q", got)
	}
	if _, err := a.Stat("notes.txt"); err != nil {
		t.Fatalf("relative stat: %v", err)
	}
	if _, err := a.Stat("projects/code.go"); err != nil {
		t.Fatalf("relative nested: %v", err)
	}
	if _, err := a.Stat("../alice/notes.txt"); err != nil {
		t.Fatalf("relative dotdot: %v", err)
	}
	if err := a.Chdir("projects"); err != nil {
		t.Fatal(err)
	}
	if got := a.Getcwd(); got != "/home/alice/projects" {
		t.Fatalf("getcwd after relative chdir: %q", got)
	}
	_ = root
}

func TestDirectoryReferenceSemantics(t *testing.T) {
	// cd into a directory, revoke search permission on an ancestor: the
	// task must still work relative to its cwd (§3.2 Directory
	// References), while absolute access is denied.
	k, root := newKernel(t, Config{})
	a := alice(k)
	if err := root.Chmod("/home/alice/projects", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := a.Chdir("/home/alice/projects"); err != nil {
		t.Fatal(err)
	}
	if err := root.Chmod("/home", 0o000); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stat("/home/alice/projects/code.go"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("absolute path after revoke: %v", err)
	}
	if _, err := a.Stat("code.go"); err != nil {
		t.Fatalf("relative path after revoke must keep working: %v", err)
	}
}

func TestChrootBarrier(t *testing.T) {
	k, root := newKernel(t, Config{})
	jail := k.NewTask(cred.Root())
	if err := jail.Chroot("/home/alice"); err != nil {
		t.Fatal(err)
	}
	if err := jail.Chdir("/"); err != nil {
		t.Fatal(err)
	}
	if _, err := jail.Stat("/notes.txt"); err != nil {
		t.Fatalf("stat inside jail: %v", err)
	}
	if _, err := jail.Stat("/etc/passwd"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("jail leaked: %v", err)
	}
	// Dot-dot cannot escape.
	if _, err := jail.Stat("/../../etc/passwd"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("dotdot escaped chroot: %v", err)
	}
	_ = root
}

func TestUnlinkRenameCacheCoherence(t *testing.T) {
	k, root := newKernel(t, Config{})
	if err := root.Unlink("/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/etc/passwd"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal("unlinked file still visible")
	}
	if err := root.Create("/etc/newfile", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.Rename("/etc/newfile", "/etc/renamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/etc/newfile"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal("old name visible after rename")
	}
	if _, err := root.Stat("/etc/renamed"); err != nil {
		t.Fatalf("new name: %v", err)
	}
	// Rename a directory: cached children must resolve under the new path.
	if _, err := root.Stat("/home/alice/projects/code.go"); err != nil {
		t.Fatal(err)
	}
	if err := root.Rename("/home/alice/projects", "/home/alice/src"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/home/alice/src/code.go"); err != nil {
		t.Fatalf("child under renamed dir: %v", err)
	}
	if _, err := root.Stat("/home/alice/projects/code.go"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("old dir path still resolves: %v", err)
	}
	// Rename onto an existing file replaces it.
	if err := root.Create("/etc/a", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.Create("/etc/b", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.Rename("/etc/a", "/etc/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/etc/a"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal("source survives replace-rename")
	}
	// Renaming a directory into its own subtree is rejected.
	if err := root.Mkdir("/d1", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir("/d1/d2", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Rename("/d1", "/d1/d2/oops"); !errors.Is(err, fsapi.EINVAL) {
		t.Fatalf("rename into own subtree: %v", err)
	}
	_ = k
}

func TestAggressiveNegativesOnUnlinkAndRename(t *testing.T) {
	k, root := newKernel(t, Config{AggressiveNegatives: true})
	if err := root.Unlink("/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	before := k.Stats().FSLookups
	if _, err := root.Stat("/etc/passwd"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	if k.Stats().FSLookups != before {
		t.Fatal("unlink did not leave a negative dentry")
	}
	// Rename leaves a negative at the old path.
	if err := root.Rename("/home/alice/notes.txt", "/home/alice/notes.bak"); err != nil {
		t.Fatal(err)
	}
	before = k.Stats().FSLookups
	if _, err := root.Stat("/home/alice/notes.txt"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	if k.Stats().FSLookups != before {
		t.Fatal("rename did not leave a negative dentry at the old path")
	}
}

func TestHardLinks(t *testing.T) {
	_, root := newKernel(t, Config{})
	if err := root.Link("/etc/passwd", "/etc/passwd2"); err != nil {
		t.Fatal(err)
	}
	n1, _ := root.Stat("/etc/passwd")
	n2, _ := root.Stat("/etc/passwd2")
	if n1.ID != n2.ID {
		t.Fatal("hard link has different inode")
	}
	if n1.Nlink != 2 {
		t.Fatalf("nlink %d, want 2", n1.Nlink)
	}
	if err := root.Unlink("/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	n2, err := root.Stat("/etc/passwd2")
	if err != nil || n2.Nlink != 1 {
		t.Fatalf("after unlinking one name: %+v %v", n2, err)
	}
	if err := root.Link("/etc", "/etclink"); !errors.Is(err, fsapi.EPERM) {
		t.Fatalf("hard link to dir: %v", err)
	}
}

func TestFileIO(t *testing.T) {
	_, root := newKernel(t, Config{})
	f, err := root.Open("/etc/passwd", O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("root:x:0:0\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := f.Read(buf)
	if err != nil || string(buf[:n]) != "root:x:0:0\n" {
		t.Fatalf("read back %q %v", buf[:n], err)
	}
	ni, _ := f.Stat()
	if ni.Size != 11 {
		t.Fatalf("size %d", ni.Size)
	}
	// O_APPEND.
	fa, err := root.Open("/etc/passwd", O_WRONLY|O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fa.Write([]byte("bin:x:1:1\n"))
	fa.Close()
	ni, _ = root.Stat("/etc/passwd")
	if ni.Size != 21 {
		t.Fatalf("append size %d", ni.Size)
	}
	// O_TRUNC.
	ft, err := root.Open("/etc/passwd", O_WRONLY|O_TRUNC, 0)
	if err != nil {
		t.Fatal(err)
	}
	ft.Close()
	ni, _ = root.Stat("/etc/passwd")
	if ni.Size != 0 {
		t.Fatalf("trunc size %d", ni.Size)
	}
}

func TestOpenFlagSemantics(t *testing.T) {
	_, root := newKernel(t, Config{})
	if _, err := root.Open("/etc/passwd", O_CREAT|O_EXCL|O_RDWR, 0o644); !errors.Is(err, fsapi.EEXIST) {
		t.Fatalf("O_EXCL on existing: %v", err)
	}
	if _, err := root.Open("/etc", O_WRONLY, 0); !errors.Is(err, fsapi.EISDIR) {
		t.Fatalf("write open of dir: %v", err)
	}
	if _, err := root.Open("/etc/passwd", O_RDONLY|O_DIRECTORY, 0); !errors.Is(err, fsapi.ENOTDIR) {
		t.Fatalf("O_DIRECTORY on file: %v", err)
	}
	if err := root.Symlink("/etc/passwd", "/plink"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Open("/plink", O_RDONLY|O_NOFOLLOW, 0); !errors.Is(err, fsapi.ELOOP) {
		t.Fatalf("O_NOFOLLOW on symlink: %v", err)
	}
	f, err := root.Open("/etc/fresh", O_CREAT|O_RDWR, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	ni, _ := root.Stat("/etc/fresh")
	if ni.Mode.Perm() != 0o600 {
		t.Fatalf("create mode %o", ni.Mode.Perm())
	}
}

func TestUnlinkOpenFile(t *testing.T) {
	_, root := newKernel(t, Config{})
	f, err := root.Open("/etc/passwd", O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := root.Unlink("/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	// The handle still reads (inode pinned even though the name is gone).
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 0); err != nil || n != 4 {
		t.Fatalf("read after unlink: %d %v", n, err)
	}
}

func TestRmdirSemantics(t *testing.T) {
	_, root := newKernel(t, Config{})
	if err := root.Rmdir("/home/alice"); !errors.Is(err, fsapi.ENOTEMPTY) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := root.Rmdir("/etc/passwd"); !errors.Is(err, fsapi.ENOTDIR) {
		t.Fatalf("rmdir file: %v", err)
	}
	if err := root.Mkdir("/gone", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Rmdir("/gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/gone"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal("rmdired dir visible")
	}
}

func TestReadDirAndAtOps(t *testing.T) {
	_, root := newKernel(t, Config{})
	d, err := root.Open("/usr/include", O_RDONLY|O_DIRECTORY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ents, err := d.ReadDirAll()
	if err != nil || len(ents) != 1 || ents[0].Name != "sys" {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	// fstatat relative to the handle.
	ni, err := root.StatAt(d, "sys/types.h", true)
	if err != nil || !ni.Mode.IsRegular() {
		t.Fatalf("statat: %+v %v", ni, err)
	}
	if _, err := root.StatAt(d, "missing", true); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("statat missing: %v", err)
	}
}

func TestLRUShrinkAndCapacity(t *testing.T) {
	k, root := newKernel(t, Config{CacheCapacity: 64})
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("/tmp/f%03d", i)
		if err := root.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.DentryCount(); n > 80 {
		t.Fatalf("cache grew to %d despite capacity 64", n)
	}
	// Everything still resolvable (just slower).
	if _, err := root.Stat("/tmp/f000"); err != nil {
		t.Fatalf("evicted path unresolvable: %v", err)
	}
	if k.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestDropCaches(t *testing.T) {
	k, root := newKernel(t, Config{})
	root.Stat("/usr/include/sys/types.h")
	before := k.DentryCount()
	n := k.DropCaches()
	if n == 0 || k.DentryCount() >= before {
		t.Fatalf("dropcaches evicted %d; count %d -> %d", n, before, k.DentryCount())
	}
	// Roots and pinned dirs survive; resolution still works.
	if _, err := root.Stat("/usr/include/sys/types.h"); err != nil {
		t.Fatal(err)
	}
}

func TestHashChainStats(t *testing.T) {
	k, root := newKernel(t, Config{})
	for i := 0; i < 100; i++ {
		root.Create(fmt.Sprintf("/tmp/c%d", i), 0o644)
	}
	empty, one, two, more := k.ChainStats()
	if empty+one+two+more != int(k.table.Stats().Buckets) {
		t.Fatalf("bucket accounting: %d %d %d %d", empty, one, two, more)
	}
	if one+two+more == 0 {
		t.Fatal("no chains populated")
	}
}
