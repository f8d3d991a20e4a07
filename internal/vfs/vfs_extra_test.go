package vfs

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/lsm"
	"dircache/internal/memfs"
)

// TestHooksHasNineMethods pins the fastpath seam: initialize a dentry's
// fast state, find, populate (three calls), alias, the mutation bracket's
// two edges, and evict. What the fastpath keeps beside the dentries — each
// namespace's DLHT, chained through them — is the kernel's, and needs no
// hook to be reaped.
func TestHooksHasNineMethods(t *testing.T) {
	if n := reflect.TypeOf((*Hooks)(nil)).Elem().NumMethod(); n != 9 {
		t.Fatalf("vfs.Hooks has %d methods, want 9", n)
	}
}

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
		ref, err := root.Walk("/etc", 0)
		if err != nil {
			t.Fatal(err)
		}
		probe := k.newDentry(ref.D.sb, ref.D, "probe")
		probe2 := k.newDentry(ref.D.sb, ref.D, "probe2")
		ht.insert(probe)
		ht.insert(probe2)
		if got := ht.lookup(ref.D, "probe"); got != probe {
			t.Fatalf("%v: lookup lost entry", mode)
		}
		ht.Remove(probe)
		if ht.lookup(ref.D, "probe") != nil {
			t.Fatalf("%v: removed entry found", mode)
		}
		if ht.lookup(ref.D, "probe2") != probe2 {
			t.Fatalf("%v: sibling lost on remove", mode)
		}
		// Removing an entry not in the table is a no-op.
		ht.Remove(probe)
		if ht.lookup(ref.D, "probe2") != probe2 || ht.Stats().Entries != 1 {
			t.Fatalf("%v: a second remove disturbed the table", mode)
		}
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

// TestAttachDisplacesIncumbent: attachChild looks at the name and links
// under one hold of the parent's lock and hands back the live dentry it
// displaced, so rename can kill a walk's in-lookup placeholder installed
// after its other checks. A placeholder overwritten unseen went on to
// resolve into the LRU and the hash table as a second dentry for the name.
func TestAttachDisplacesIncumbent(t *testing.T) {
	k, root := newKernel(t, Config{})
	etc, err := root.Walk("/etc", 0)
	if err != nil {
		t.Fatal(err)
	}
	parent := etc.D
	placeholder := k.newDentry(parent.sb, parent, "x")
	placeholder.setFlags(DInLookup)
	parent.mu.Lock()
	parent.linkChildLocked("x", placeholder)
	parent.mu.Unlock()
	moved := k.allocDentry(parent.sb, parent, "x", nil)
	if prev, ok := parent.attachChild(moved); !ok || prev != placeholder {
		t.Fatalf("attachChild returned (%v, %v), want the placeholder it displaced", prev, ok)
	}
	if parent.child("x") != moved {
		t.Fatal("the moved dentry does not hold the name")
	}
	if prev, ok := parent.attachChild(moved); !ok || prev != nil {
		t.Fatalf("re-attaching the holder returned (%v, %v), want nothing displaced", prev, ok)
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
		if _, ok := parent.attachChild(moved); ok {
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

// TestRetireLaterQueuesOnce: a dentry two kills reach is queued for the
// sweeper once, so the sweeper retires its slot once and never reads it
// again, when a new tenant may be moving in.
func TestRetireLaterQueuesOnce(t *testing.T) {
	k, _ := newKernel(t, Config{})
	k.ReclaimAll()
	d := testDentry(k)
	d.setFlags(DDead)
	k.retireLater(d)
	k.retireLater(d)
	if n := k.limboLen.Load(); n != 1 {
		t.Fatalf("two kills queued %d records, want 1", n)
	}
	if n := k.sweepLimbo(8); n != 1 || k.DentryFromRef(d.self) != nil {
		t.Fatalf("the sweeper processed %d records and left the slot live: %v", n, k.DentryFromRef(d.self) != nil)
	}
}

// checkInodeNames: the superblock's inode cache holds exactly the inodes
// its live cached dentries name, each with one name per such dentry.
func checkInodeNames(t *testing.T, sb *Super) {
	t.Helper()
	want := map[*Inode]int32{}
	var visit func(d *Dentry)
	visit = func(d *Dentry) {
		if ino := d.Inode(); ino != nil && !d.IsDead() {
			want[ino]++
		}
		d.EachChild(visit)
	}
	visit(sb.root)
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if len(sb.icache) != len(want) {
		t.Fatalf("the inode cache holds %d inodes, the cached dentries name %d", len(sb.icache), len(want))
	}
	for id, ino := range sb.icache {
		if n, ok := want[ino]; !ok || ino.names != n {
			t.Fatalf("inode %d holds %d names, %d cached dentries name it", id, ino.names, n)
		}
	}
}

// TestInodeCacheFollowsDentries: an inode leaves the cache with the last
// cached dentry that names it. 3 000 files walked through a 256-dentry
// cache leave no more inodes behind than dentries, DropCaches leaves the
// pinned ones' only, and hard links share one inode through eviction and
// re-lookup, so a chmod through one name shows through the other.
func TestInodeCacheFollowsDentries(t *testing.T) {
	k, root := newKernel(t, Config{CacheCapacity: 256})
	sb := k.initNS.root.sb
	if err := root.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		p := fmt.Sprintf("/d/f%04d", i)
		if err := root.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := root.Stat(p); err != nil {
			t.Fatal(err)
		}
	}
	k.ReclaimAll()
	checkInodeNames(t, sb)
	k.DropCaches()
	checkInodeNames(t, sb)
	if n := len(sb.icache); n > 2 {
		t.Fatalf("after DropCaches the inode cache holds %d inodes", n)
	}

	if err := root.Create("/d/a", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.Link("/d/a", "/d/b"); err != nil {
		t.Fatal(err)
	}
	inode := func(p string) *Inode {
		ref, err := root.Walk(p, WalkNoFollow)
		if err != nil {
			t.Fatal(err)
		}
		return ref.D.Inode()
	}
	if inode("/d/a") != inode("/d/b") {
		t.Fatal("two hard links hold two inodes")
	}
	checkInodeNames(t, sb)
	k.DropCaches()
	b := inode("/d/b")
	if b != inode("/d/a") {
		t.Fatal("after eviction and re-lookup the hard links hold two inodes")
	}
	if err := root.Chmod("/d/b", 0o600); err != nil {
		t.Fatal(err)
	}
	if st, err := root.Stat("/d/a"); err != nil || st.Mode.Perm() != 0o600 {
		t.Fatalf("chmod through /d/b: /d/a reads %v, %v", st.Mode.Perm(), err)
	}
	checkInodeNames(t, sb)
	if err := root.Unlink("/d/a"); err != nil {
		t.Fatal(err)
	}
	if st, err := root.Stat("/d/b"); err != nil || st.Nlink != 1 {
		t.Fatalf("after unlinking /d/a, /d/b reads nlink %d, %v", st.Nlink, err)
	}
	k.ReclaimAll()
	checkInodeNames(t, sb)
}

// TestSetInodeAfterRetire: an inode stored in a dentry before its kill is
// given back by retireLater, and one stored after it (a hydration or a
// positivize losing a race with the kill) is given back at once: in either
// order the inode leaves the cache, and no name is given back twice.
func TestSetInodeAfterRetire(t *testing.T) {
	k, _ := newKernel(t, Config{})
	sb := k.initNS.root.sb
	for _, before := range []bool{true, false} {
		d := testDentry(k)
		ino := sb.inodeFor(fsapi.NodeInfo{ID: 1 << 40})
		set := func() {
			d.mu.Lock()
			d.setInode(ino)
			d.mu.Unlock()
		}
		if before {
			set()
		}
		d.setFlags(DDead)
		k.retireLater(d)
		if !before {
			set()
		}
		k.retireLater(d)
		if ino.names != 0 || sb.icache[ino.id] != nil {
			t.Fatalf("stored before the kill %v: %d names left, cached %v", before, ino.names, sb.icache[ino.id] != nil)
		}
	}
}

// TestInodeCacheRebuilds: streaming 4 000 files through a 256-dentry
// cache deletes thousands of inodes from the superblock's map, and the map
// is rebuilt whenever the deletes since the last rebuild pass twice its
// live entries and icacheRebuildSlack, so the count of deletes it carries
// never exceeds that and resets on the way; the rebuilt map holds the
// same inodes with the same names.
func TestInodeCacheRebuilds(t *testing.T) {
	k, root := newKernel(t, Config{CacheCapacity: 256})
	sb := k.initNS.root.sb
	if err := root.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	rebuilds, last := 0, 0
	for i := 0; i < 4000; i++ {
		p := fmt.Sprintf("/d/f%04d", i)
		if err := root.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := root.Stat(p); err != nil {
			t.Fatal(err)
		}
		sb.mu.Lock()
		n, live := sb.deletes, len(sb.icache)
		sb.mu.Unlock()
		if n > 2*live+icacheRebuildSlack {
			t.Fatalf("after %d files the inode cache carries %d deletes beside %d live inodes", i+1, n, live)
		}
		if n < last {
			rebuilds++
		}
		last = n
	}
	if rebuilds == 0 {
		t.Fatalf("4000 files through a 256-dentry cache never rebuilt the inode cache (%d deletes pending)", last)
	}
	k.ReclaimAll()
	checkInodeNames(t, sb)
}

// TestOpenFileHoldsInode: an open File keeps its inode cached after its
// dentry goes, so a handle opened through an unlinked hard link and a
// handle on the other link share one inode. Both appends survive, and the
// first handle's fstat sees a chmod made through the other name; in
// either unlink mode (the dentry killed, or turned negative in place).
func TestOpenFileHoldsInode(t *testing.T) {
	for _, aggressive := range []bool{false, true} {
		k, root := newKernel(t, Config{AggressiveNegatives: aggressive})
		sb := k.initNS.root.sb
		if err := root.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := root.Create("/d/a", 0o644); err != nil {
			t.Fatal(err)
		}
		if err := root.Link("/d/a", "/d/b"); err != nil {
			t.Fatal(err)
		}
		fa, err := root.Open("/d/a", O_WRONLY|O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Unlink("/d/a"); err != nil {
			t.Fatal(err)
		}
		k.DropCaches()
		fb, err := root.Open("/d/b", O_WRONLY|O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fa.ino != fb.ino {
			t.Fatalf("aggressive %v: the two handles hold two inodes", aggressive)
		}
		if _, err := fb.Write([]byte("bbb")); err != nil {
			t.Fatal(err)
		}
		if _, err := fa.Write([]byte("aa")); err != nil {
			t.Fatal(err)
		}
		if err := root.Chmod("/d/b", 0o600); err != nil {
			t.Fatal(err)
		}
		if st, err := fa.Stat(); err != nil || st.Mode.Perm() != 0o600 || st.Size != 5 {
			t.Fatalf("aggressive %v: fstat after a chmod through /d/b reads mode %v size %d, %v", aggressive, st.Mode.Perm(), st.Size, err)
		}
		for _, f := range []*File{fa, fb} {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		fr, err := root.Open("/d/b", O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		n, _ := fr.Read(buf)
		if got := string(buf[:n]); got != "bbbaa" {
			t.Fatalf("aggressive %v: /d/b holds %q, want both appends", aggressive, got)
		}
		fr.Close()
		k.ReclaimAll()
		checkInodeNames(t, sb)
	}
}
