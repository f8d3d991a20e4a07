package vfs

import (
	"errors"
	"fmt"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/lsm"
	"dircache/internal/memfs"
)

func TestAccessMasks(t *testing.T) {
	k, root := newKernel(t, Config{})
	if err := root.Create("/etc/script", 0o754); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/etc/script", 1000, 1000); err != nil {
		t.Fatal(err)
	}
	a := alice(k) // uid 1000: owner
	b := bob(k)   // uid 1001: other
	if err := a.Access("/etc/script", lsm.MayRead|lsm.MayWrite|lsm.MayExec); err != nil {
		t.Fatalf("owner rwx: %v", err)
	}
	if err := b.Access("/etc/script", lsm.MayRead); err != nil {
		t.Fatalf("other read: %v", err)
	}
	if err := b.Access("/etc/script", lsm.MayWrite); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("other write: %v", err)
	}
	if err := b.Access("/etc/script", lsm.MayExec); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("other exec: %v", err)
	}
	if err := b.Access("/ghost", lsm.MayRead); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("missing: %v", err)
	}
}

func TestGroupPermissions(t *testing.T) {
	k, root := newKernel(t, Config{})
	if err := root.Create("/etc/groupfile", 0o640); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/etc/groupfile", 0, 42); err != nil {
		t.Fatal(err)
	}
	member := k.NewTask(cred.New(2000, 2000, []uint32{42}, ""))
	outsider := k.NewTask(cred.New(2000, 2000, []uint32{43}, ""))
	if err := member.Access("/etc/groupfile", lsm.MayRead); err != nil {
		t.Fatalf("supplementary group read: %v", err)
	}
	if err := outsider.Access("/etc/groupfile", lsm.MayRead); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("outsider read: %v", err)
	}
	if err := member.Access("/etc/groupfile", lsm.MayWrite); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("group write on 640: %v", err)
	}
}

func TestRootExecRequiresSomeXBit(t *testing.T) {
	_, root := newKernel(t, Config{})
	root.Create("/etc/noexec", 0o644)
	root.Create("/etc/exec", 0o700)
	if err := root.Access("/etc/noexec", lsm.MayExec); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("root exec of 644 file: %v", err)
	}
	if err := root.Access("/etc/exec", lsm.MayExec); err != nil {
		t.Fatalf("root exec of 700 file: %v", err)
	}
}

func TestNoExecMount(t *testing.T) {
	_, root := newKernel(t, Config{})
	data := memfs.New(memfs.Options{})
	root.Mkdir("/opt", 0o755)
	if _, err := root.Mount(data, "/opt", MntNoExec); err != nil {
		t.Fatal(err)
	}
	root.Create("/opt/tool", 0o755)
	if err := root.Access("/opt/tool", lsm.MayExec); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("exec on noexec mount: %v", err)
	}
	if err := root.Access("/opt/tool", lsm.MayRead); err != nil {
		t.Fatalf("read on noexec mount: %v", err)
	}
	// Directories remain searchable (noexec gates regular files only).
	if err := root.Mkdir("/opt/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/opt/sub"); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatePath(t *testing.T) {
	_, root := newKernel(t, Config{})
	f, _ := root.Open("/etc/t", O_CREAT|O_WRONLY, 0o644)
	f.Write(make([]byte, 100))
	f.Close()
	if err := root.Truncate("/etc/t", 10); err != nil {
		t.Fatal(err)
	}
	ni, _ := root.Stat("/etc/t")
	if ni.Size != 10 {
		t.Fatalf("size %d", ni.Size)
	}
	if err := root.Truncate("/etc", 0); !errors.Is(err, fsapi.EINVAL) {
		t.Fatalf("truncate dir: %v", err)
	}
}

func TestWalkParentEdges(t *testing.T) {
	_, root := newKernel(t, Config{})
	// Removing "/" or "." must fail cleanly.
	if err := root.Unlink("/"); err == nil {
		t.Fatal("unlink / accepted")
	}
	if err := root.Rmdir("///"); err == nil {
		t.Fatal("rmdir /// accepted")
	}
	if err := root.Mkdir("/etc/.", 0o755); !errors.Is(err, fsapi.EINVAL) {
		t.Fatalf("mkdir dot: %v", err)
	}
	if err := root.Unlink("/etc/.."); !errors.Is(err, fsapi.EINVAL) {
		t.Fatalf("unlink dotdot: %v", err)
	}
	// Trailing slashes on a create resolve to the parent correctly.
	if err := root.Mkdir("/newdir///", 0o755); err != nil {
		t.Fatalf("mkdir with trailing slashes: %v", err)
	}
	if _, err := root.Stat("/newdir"); err != nil {
		t.Fatal(err)
	}
}

func TestRenameAcrossMountsEXDEV(t *testing.T) {
	_, root := newKernel(t, Config{})
	data := memfs.New(memfs.Options{})
	root.Mkdir("/mnt", 0o755)
	if _, err := root.Mount(data, "/mnt", 0); err != nil {
		t.Fatal(err)
	}
	root.Create("/mnt/inside", 0o644)
	if err := root.Rename("/mnt/inside", "/etc/outside"); !errors.Is(err, fsapi.EXDEV) {
		t.Fatalf("cross-mount rename: %v", err)
	}
	if err := root.Link("/mnt/inside", "/etc/hl"); !errors.Is(err, fsapi.EXDEV) {
		t.Fatalf("cross-mount link: %v", err)
	}
}

func TestUnmountErrors(t *testing.T) {
	k, root := newKernel(t, Config{})
	if err := root.Unmount("/etc"); !errors.Is(err, fsapi.EINVAL) {
		t.Fatalf("unmount non-mountpoint: %v", err)
	}
	data := memfs.New(memfs.Options{})
	root.Mkdir("/mnt", 0o755)
	root.Mount(data, "/mnt", 0)
	root.Mkdir("/mnt/deeper", 0o755)
	inner := memfs.New(memfs.Options{})
	root.Mount(inner, "/mnt/deeper", 0)
	if err := root.Unmount("/mnt"); !errors.Is(err, fsapi.EBUSY) {
		t.Fatalf("unmount busy parent: %v", err)
	}
	if err := root.Unmount("/mnt/deeper"); err != nil {
		t.Fatal(err)
	}
	if err := root.Unmount("/mnt"); err != nil {
		t.Fatal(err)
	}
	// Non-root denied.
	a := alice(k)
	if err := a.Unmount("/mnt"); !errors.Is(err, fsapi.EPERM) {
		t.Fatalf("non-root unmount: %v", err)
	}
	if _, err := a.Mount(memfs.New(memfs.Options{}), "/mnt", 0); !errors.Is(err, fsapi.EPERM) {
		t.Fatalf("non-root mount: %v", err)
	}
	if err := a.Chroot("/etc"); !errors.Is(err, fsapi.EPERM) {
		t.Fatalf("non-root chroot: %v", err)
	}
}

func TestChownSemantics(t *testing.T) {
	k, root := newKernel(t, Config{})
	root.Create("/etc/owned", 0o644)
	root.Chown("/etc/owned", 1000, 1000)
	a := alice(k)
	// Owner may "change" to the same uid with a group they belong to.
	if err := a.Chown("/etc/owned", 1000, 1000); err != nil {
		t.Fatalf("no-op chown by owner: %v", err)
	}
	// Owner may not give the file away.
	if err := a.Chown("/etc/owned", 1001, 1001); !errors.Is(err, fsapi.EPERM) {
		t.Fatalf("giveaway chown: %v", err)
	}
	b := bob(k)
	if err := b.Chown("/etc/owned", 1001, 1001); !errors.Is(err, fsapi.EPERM) {
		t.Fatalf("non-owner chown: %v", err)
	}
}

func TestDirHandleRewind(t *testing.T) {
	_, root := newKernel(t, Config{DirCompleteness: true})
	root.Mkdir("/d", 0o755)
	for i := 0; i < 5; i++ {
		root.Create(fmt.Sprintf("/d/f%d", i), 0o644)
	}
	f, err := root.Open("/d", O_RDONLY|O_DIRECTORY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	first, err := f.ReadDirAll()
	if err != nil || len(first) != 5 {
		t.Fatalf("first pass: %d %v", len(first), err)
	}
	// Rewind and read again through the same handle.
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	second, err := f.ReadDirAll()
	if err != nil || len(second) != 5 {
		t.Fatalf("after rewind: %d %v", len(second), err)
	}
	// Reading at EOF yields nothing.
	more, err := f.ReadDir(10)
	if err != nil || len(more) != 0 {
		t.Fatalf("past EOF: %d %v", len(more), err)
	}
}

func TestFileAfterClose(t *testing.T) {
	_, root := newKernel(t, Config{})
	f, _ := root.Open("/etc/passwd", O_RDWR, 0)
	f.Close()
	if err := f.Close(); !errors.Is(err, fsapi.EBADF) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, fsapi.EBADF) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, fsapi.EBADF) {
		t.Fatalf("write after close: %v", err)
	}
	if _, err := f.Seek(0, 0); !errors.Is(err, fsapi.EBADF) {
		t.Fatalf("seek after close: %v", err)
	}
	if _, err := f.Stat(); !errors.Is(err, fsapi.EBADF) {
		t.Fatalf("stat after close: %v", err)
	}
}

func TestFileModeEnforcement(t *testing.T) {
	_, root := newKernel(t, Config{})
	ro, _ := root.Open("/etc/passwd", O_RDONLY, 0)
	defer ro.Close()
	if _, err := ro.Write([]byte("x")); !errors.Is(err, fsapi.EBADF) {
		t.Fatalf("write to O_RDONLY: %v", err)
	}
	wo, _ := root.Open("/etc/passwd", O_WRONLY, 0)
	defer wo.Close()
	if _, err := wo.Read(make([]byte, 1)); !errors.Is(err, fsapi.EBADF) {
		t.Fatalf("read from O_WRONLY: %v", err)
	}
	if _, err := wo.ReadAt(make([]byte, 1), 0); !errors.Is(err, fsapi.EBADF) {
		t.Fatalf("readat from O_WRONLY: %v", err)
	}
}

func TestSeekWhence(t *testing.T) {
	_, root := newKernel(t, Config{})
	f, _ := root.Open("/etc/data", O_CREAT|O_RDWR, 0o644)
	defer f.Close()
	f.Write([]byte("0123456789"))
	if pos, err := f.Seek(-3, 2); err != nil || pos != 7 {
		t.Fatalf("seek end: %d %v", pos, err)
	}
	buf := make([]byte, 3)
	n, _ := f.Read(buf)
	if string(buf[:n]) != "789" {
		t.Fatalf("read after seek: %q", buf[:n])
	}
	if pos, err := f.Seek(-2, 1); err != nil || pos != 8 {
		t.Fatalf("seek cur: %d %v", pos, err)
	}
	if _, err := f.Seek(-100, 0); !errors.Is(err, fsapi.EINVAL) {
		t.Fatalf("negative seek: %v", err)
	}
	if _, err := f.Seek(0, 9); !errors.Is(err, fsapi.EINVAL) {
		t.Fatalf("bad whence: %v", err)
	}
}

func TestGetcwdAcrossBindMount(t *testing.T) {
	_, root := newKernel(t, Config{})
	root.Mkdir("/data", 0o755)
	root.Mkdir("/data/deep", 0o755)
	root.Mkdir("/view", 0o755)
	if _, err := root.BindMount("/data", "/view", 0); err != nil {
		t.Fatal(err)
	}
	if err := root.Chdir("/view/deep"); err != nil {
		t.Fatal(err)
	}
	if got := root.Getcwd(); got != "/view/deep" {
		t.Fatalf("getcwd through bind mount: %q", got)
	}
}

func TestSymlinkLoopInMiddle(t *testing.T) {
	_, root := newKernel(t, Config{})
	root.Symlink("/l2/x", "/l1")
	root.Symlink("/l1/x", "/l2")
	if _, err := root.Stat("/l1/whatever"); !errors.Is(err, fsapi.ELOOP) {
		t.Fatalf("mid-path loop: %v", err)
	}
}

func TestPathTooLong(t *testing.T) {
	_, root := newKernel(t, Config{})
	long := make([]byte, MaxPath+10)
	for i := range long {
		long[i] = 'a'
	}
	long[0] = '/'
	if _, err := root.Stat(string(long)); !errors.Is(err, fsapi.ENAMETOOLONG) {
		t.Fatalf("overlong path: %v", err)
	}
	comp := make([]byte, 300)
	for i := range comp {
		comp[i] = 'b'
	}
	if _, err := root.Stat("/" + string(comp)); !errors.Is(err, fsapi.ENAMETOOLONG) {
		t.Fatalf("overlong component: %v", err)
	}
}

func TestHashTableEraSemantics(t *testing.T) {
	for _, mode := range []SyncMode{SyncRCU, SyncBucketLock, SyncBigLock} {
		k, root := newKernel(t, Config{SyncMode: mode})
		ht := newHashTable(mode, k)
		root.Create("/etc/probe", 0o644)
		ref, err := root.Walk("/etc/probe", 0)
		if err != nil {
			t.Fatal(err)
		}
		ht.insert(1, "probe", ref.D)
		ht.insert(1, "probe2", ref.D)
		if got := ht.lookup(1, "probe"); got != ref.D {
			t.Fatalf("%v: lookup lost entry", mode)
		}
		ht.remove(1, "probe", ref.D)
		if ht.lookup(1, "probe") != nil {
			t.Fatalf("%v: removed entry found", mode)
		}
		if ht.lookup(1, "probe2") != ref.D {
			t.Fatalf("%v: sibling lost on remove", mode)
		}
		// Removing a non-existent entry is a no-op.
		ht.remove(1, "ghost", ref.D)
		_ = k
	}
	if SyncRCU.String() != "rcu" || SyncBigLock.String() != "biglock" ||
		SyncBucketLock.String() != "bucketlock" {
		t.Fatal("era names")
	}
}

func TestShrinkRespectsPins(t *testing.T) {
	k, root := newKernel(t, Config{})
	root.Mkdir("/pinned", 0o755)
	f, err := root.Open("/pinned", O_RDONLY|O_DIRECTORY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	k.DropCaches()
	// The open directory (and its ancestors) must survive.
	if f.Dentry().IsDead() {
		t.Fatal("pinned dentry evicted")
	}
	if _, err := f.ReadDirAll(); err != nil {
		t.Fatalf("handle unusable after dropcaches: %v", err)
	}
}

func TestStatFollowsFinalSymlinkChain(t *testing.T) {
	_, root := newKernel(t, Config{})
	root.Symlink("/etc/passwd", "/a1")
	root.Symlink("/a1", "/a2")
	root.Symlink("/a2", "/a3")
	ni, err := root.Stat("/a3")
	if err != nil || !ni.Mode.IsRegular() {
		t.Fatalf("chained links: %+v %v", ni, err)
	}
}

func TestPathToDiagnostics(t *testing.T) {
	_, root := newKernel(t, Config{})
	ref, err := root.Walk("/usr/include/sys", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.D.PathTo(); got != "/usr/include/sys" {
		t.Fatalf("PathTo: %q", got)
	}
	rootRef, _ := root.Walk("/", 0)
	if got := rootRef.D.PathTo(); got != "/" {
		t.Fatalf("root PathTo: %q", got)
	}
}

// TestNoInsertUnderDeadParent: a walker that found a negative dentry can
// reach the insert after a rename has killed that negative (the IsDead
// pre-checks in AddSpecialNegative and the walk are not under parent.mu).
// Whatever path the insert takes, a dead parent must end up with no live
// child: nothing would ever reach it or tear it down.
func TestNoInsertUnderDeadParent(t *testing.T) {
	k, root := newKernel(t, Config{AggressiveNegatives: true})
	if _, err := root.Stat("/etc/ghost"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("stat absent: %v", err)
	}
	etc, err := root.Walk("/etc", 0)
	if err != nil {
		t.Fatal(err)
	}
	neg := etc.D.child("ghost")
	if neg == nil || !neg.IsNegative() {
		t.Fatal("no negative dentry cached for /etc/ghost")
	}
	dir, err := root.Walk("/usr/include/sys", 0)
	if err != nil {
		t.Fatal(err)
	}
	k.killDentryKeepComplete(neg)
	k.killDentryKeepComplete(dir.D)

	for _, parent := range []*Dentry{neg, dir.D} {
		if got := k.installDedup(parent, "b", k.allocDentry(parent.sb, parent, "b", nil), false); got != nil {
			t.Errorf("installDedup under a dead parent returned live dentry %q", got.Name())
		}
		k.installUnhydrated(parent, fsapi.DirEntry{Name: "c", ID: 1, Type: fsapi.TypeRegular})
		moved := k.allocDentry(parent.sb, parent, "d", nil)
		if parent.attachChild(moved) {
			t.Error("attachChild accepted a dead parent")
		}
		k.discardDentry(moved)
		if n, kids := parent.nkids.Load(), len(parent.children); n != 0 || kids != 0 {
			t.Errorf("dead parent %q holds %d children (nkids %d), want none", parent.Name(), kids, n)
		}
	}
	// The placeholder path: a miss under the dead directory installs
	// nothing and tells the walk to redo.
	if _, err := k.missLookup(dir, "types.h", nil); err != errSeqRetry {
		t.Errorf("missLookup under a dead directory: %v, want errSeqRetry", err)
	}
	if n := dir.D.nkids.Load(); n != 0 || k.InLookupCount() != 0 {
		t.Errorf("dead directory holds %d children, %d placeholders in flight", n, k.InLookupCount())
	}
	// And the walk does redo: the name resolves through a fresh dentry.
	if _, err := root.Stat("/usr/include/sys/types.h"); err != nil {
		t.Fatalf("stat after the kill: %v", err)
	}

	// The shrinker's arm: the hand claims a victim under its d.mu — leaf
	// re-checked, DDead set — so in the window between the claim and
	// Shrink's teardown of it nothing can land under it either. (A victim
	// claimed on nkids == 0 and marked dead only later took the insert.)
	victims := k.lru.victims(1 << 20)
	if len(victims) == 0 {
		t.Fatal("the hand claimed nothing")
	}
	for _, v := range victims {
		if got := k.installDedup(v, "b", k.allocDentry(v.sb, v, "b", nil), false); got != nil {
			t.Fatalf("installDedup under claimed victim %q returned a live dentry", v.Name())
		}
		if n := v.nkids.Load(); n != 0 {
			t.Fatalf("claimed victim %q holds %d children", v.Name(), n)
		}
	}
}
