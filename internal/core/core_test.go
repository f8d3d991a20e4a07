package core

import (
	"errors"
	"fmt"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/vfs"
)

// optimized builds a kernel with all paper optimizations enabled, the
// standard test tree, and a root task.
func optimized(t *testing.T) (*vfs.Kernel, *Core, *vfs.Task) {
	t.Helper()
	k := vfs.NewKernel(vfs.Config{
		DirCompleteness:     true,
		AggressiveNegatives: true,
	}, memfs.New(memfs.Options{}))
	c := Install(k, Config{
		Seed:           12345,
		DeepNegatives:  true,
		SymlinkAliases: true,
		AdmitAfter:     1, // these tests probe first-touch population mechanics
	})
	root := k.NewTask(cred.Root())
	buildTree(t, root)
	return k, c, root
}

func buildTree(t *testing.T, root *vfs.Task) {
	t.Helper()
	for _, d := range []string{
		"/home", "/home/alice", "/home/alice/projects",
		"/home/bob", "/home/bob/secret",
		"/etc", "/usr", "/usr/include", "/usr/include/sys", "/tmp",
	} {
		if err := root.Mkdir(d, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", d, err)
		}
	}
	for _, f := range []string{
		"/home/alice/notes.txt", "/home/alice/projects/code.go",
		"/home/bob/secret/key", "/etc/passwd", "/usr/include/sys/types.h",
	} {
		if err := root.Create(f, 0o644); err != nil {
			t.Fatalf("create %s: %v", f, err)
		}
	}
	if err := root.Chmod("/home/bob", 0o700); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/home/bob", "/home/bob/secret", "/home/bob/secret/key"} {
		if err := root.Chown(p, 1001, 1001); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/home/alice", "/home/alice/projects",
		"/home/alice/notes.txt", "/home/alice/projects/code.go"} {
		if err := root.Chown(p, 1000, 1000); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFastpathHit(t *testing.T) {
	k, c, root := optimized(t)
	const p = "/usr/include/sys/types.h"
	n1, err := root.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	slowBefore := k.Stats().SlowWalks
	n2, err := root.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatalf("fastpath result differs: %+v vs %+v", n1, n2)
	}
	if k.Stats().SlowWalks != slowBefore {
		t.Fatal("second stat took the slow path")
	}
	if c.k.Stats().FastHits == 0 {
		t.Fatal("no fastpath hit recorded")
	}
	// Many more hits, all fast.
	for i := 0; i < 100; i++ {
		if _, err := root.Stat(p); err != nil {
			t.Fatal(err)
		}
	}
	if k.Stats().SlowWalks != slowBefore {
		t.Fatal("warm stats still walking slowly")
	}
}

func TestFastpathRelative(t *testing.T) {
	k, _, root := optimized(t)
	if err := root.Chdir("/usr/include"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("sys/types.h"); err != nil {
		t.Fatal(err)
	}
	slowBefore := k.Stats().SlowWalks
	if _, err := root.Stat("sys/types.h"); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slowBefore {
		t.Fatal("relative warm stat took the slow path")
	}
	// Absolute and relative must agree.
	a, _ := root.Stat("/usr/include/sys/types.h")
	r, _ := root.Stat("sys/types.h")
	if a.ID != r.ID {
		t.Fatal("relative and absolute disagree")
	}
}

func TestPCCIsPerCredential(t *testing.T) {
	k, _, root := optimized(t)
	alice := k.NewTask(cred.New(1000, 1000, nil, ""))
	bob := k.NewTask(cred.New(1001, 1001, nil, ""))

	// Root warms the path; alice's first access must still take the
	// slowpath (her PCC is empty) and be correctly denied for bob's tree.
	if _, err := root.Stat("/home/bob/secret/key"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat("/home/bob/secret/key"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("alice read bob's key: %v", err)
	}
	// Repeatedly: the denial must never be served (incorrectly) from the
	// fastpath as success, and also must not be cached as a hit.
	for i := 0; i < 10; i++ {
		if _, err := alice.Stat("/home/bob/secret/key"); !errors.Is(err, fsapi.EACCES) {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	// Bob fast-hits his own file after one slow walk.
	if _, err := bob.Stat("/home/bob/secret/key"); err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	if _, err := bob.Stat("/home/bob/secret/key"); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("bob's warm stat took the slow path")
	}
}

func TestSharedCredSharesPCC(t *testing.T) {
	k, _, _ := optimized(t)
	shell := k.NewTask(cred.New(1000, 1000, nil, ""))
	child := shell.Fork()
	// Parent warms; child must fast-hit immediately (shared PCC, §4.1).
	if _, err := shell.Stat("/usr/include/sys/types.h"); err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	if _, err := child.Stat("/usr/include/sys/types.h"); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("forked child missed the shared PCC")
	}
}

func TestChmodDirInvalidatesFastpath(t *testing.T) {
	k, _, root := optimized(t)
	alice := k.NewTask(cred.New(1000, 1000, nil, ""))
	const p = "/usr/include/sys/types.h"
	// Warm alice's fastpath.
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	// Revoke search on an ancestor: the fastpath must not keep answering.
	if err := root.Chmod("/usr/include", 0o700); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat(p); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("stale prefix check served after chmod: %v", err)
	}
	// Restore and verify re-population works.
	if err := root.Chmod("/usr/include", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("fastpath did not repopulate after restore")
	}
}

func TestChownDirInvalidatesFastpath(t *testing.T) {
	k, _, root := optimized(t)
	alice := k.NewTask(cred.New(1000, 1000, nil, ""))
	if err := root.Chmod("/home/alice", 0o700); err != nil {
		t.Fatal(err)
	}
	p := "/home/alice/projects/code.go"
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	// Give the 0700 home dir to bob: alice loses access.
	if err := root.Chown("/home/alice", 1001, 1001); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat(p); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("stale prefix check after chown: %v", err)
	}
}

func TestRenameInvalidatesFastpath(t *testing.T) {
	k, _, root := optimized(t)
	oldP := "/home/alice/projects/code.go"
	if _, err := root.Stat(oldP); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(oldP); err != nil {
		t.Fatal(err)
	}
	if err := root.Rename("/home/alice/projects", "/home/alice/src"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(oldP); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("old path after dir rename: %v", err)
	}
	newP := "/home/alice/src/code.go"
	n, err := root.Stat(newP)
	if err != nil || !n.Mode.IsRegular() {
		t.Fatalf("new path: %+v %v", n, err)
	}
	// Warm the new path; verify it fast-hits.
	slow := k.Stats().SlowWalks
	if _, err := root.Stat(newP); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("renamed path did not fast-hit after repopulation")
	}
}

func TestNegativeFastpath(t *testing.T) {
	k, c, root := optimized(t)
	p := "/usr/include/sys/missing.h"
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	for i := 0; i < 5; i++ {
		if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
			t.Fatal(err)
		}
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("repeated ENOENT took the slow path (neg-f case)")
	}
	if c.k.Stats().FastNeg == 0 {
		t.Fatal("negative fastpath hits not recorded")
	}
	// Creating the file flips the same path to a positive fastpath hit.
	if err := root.Create(p, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(p); err != nil {
		t.Fatalf("stat after create over negative: %v", err)
	}
}

func TestDeepNegativeFastpath(t *testing.T) {
	k, c, root := optimized(t)
	// neg-d: the first component that exists is /usr; "ghost" is missing
	// and the path continues below it.
	p := "/usr/ghost/sub/file.c"
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	if c.k.Stats().DeepNegDentries == 0 {
		t.Fatal("no deep negatives created")
	}
	slow := k.Stats().SlowWalks
	for i := 0; i < 5; i++ {
		if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
			t.Fatal(err)
		}
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("repeated deep-negative lookup took the slow path (neg-d case)")
	}
	// Creating the intermediate directory must evict the stale chain.
	if err := root.Mkdir("/usr/ghost", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir("/usr/ghost/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Create(p, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(p); err != nil {
		t.Fatalf("stat after filling in deep-negative path: %v", err)
	}
}

func TestENOTDIRDeepNegative(t *testing.T) {
	k, _, root := optimized(t)
	p := "/etc/passwd/sub/entry"
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOTDIR) {
		t.Fatalf("first: %v", err)
	}
	slow := k.Stats().SlowWalks
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOTDIR) {
		t.Fatalf("second: %v", err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("repeated ENOTDIR took the slow path")
	}
}

func TestSymlinkFileFastpath(t *testing.T) {
	// link-f: XXX/YYY/ZZZ/LLL -> FFF
	k, _, root := optimized(t)
	if err := root.Create("/usr/include/sys/FFF", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.Symlink("FFF", "/usr/include/sys/LLL"); err != nil {
		t.Fatal(err)
	}
	p := "/usr/include/sys/LLL"
	n1, err := root.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	n2, err := root.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("link-f warm stat took the slow path")
	}
	if n1.ID != n2.ID {
		t.Fatal("link-f results differ")
	}
	real, _ := root.Stat("/usr/include/sys/FFF")
	if n2.ID != real.ID {
		t.Fatal("link-f did not resolve to the target inode")
	}
	// Lstat must still see the link (NoFollow path).
	li, err := root.Lstat(p)
	if err != nil || !li.Mode.IsSymlink() {
		t.Fatalf("lstat through fastpath: %+v %v", li, err)
	}
}

func TestSymlinkDirAliasFastpath(t *testing.T) {
	// link-d: LLL/YYY/ZZZ/FFF where LLL -> XXX.
	k, c, root := optimized(t)
	if err := root.Symlink("/usr/include", "/inc"); err != nil {
		t.Fatal(err)
	}
	p := "/inc/sys/types.h"
	n1, err := root.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.k.Stats().AliasDentries == 0 {
		t.Fatal("no alias dentries created")
	}
	slow := k.Stats().SlowWalks
	n2, err := root.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("link-d warm stat took the slow path")
	}
	real, _ := root.Stat("/usr/include/sys/types.h")
	if n1.ID != real.ID || n2.ID != real.ID {
		t.Fatal("alias resolution returned the wrong inode")
	}
}

func TestAliasStaleAfterTargetRename(t *testing.T) {
	_, _, root := optimized(t)
	if err := root.Symlink("/usr/include", "/inc"); err != nil {
		t.Fatal(err)
	}
	p := "/inc/sys/types.h"
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	// Move the real file away: the alias (and its cached redirect) must
	// not keep resolving.
	if err := root.Rename("/usr/include/sys/types.h", "/tmp/types.h"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("stale alias served after target rename: %v", err)
	}
}

func TestDotDotLinuxSemantics(t *testing.T) {
	k, c, root := optimized(t)
	alice := k.NewTask(cred.New(1000, 1000, nil, ""))
	// Warm both prefixes.
	if _, err := alice.Stat("/usr/include/sys/types.h"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat("/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	p := "/usr/include/../../etc/passwd"
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("dot-dot warm stat took the slow path")
	}
	if c.k.Stats().DotDotChecks == 0 {
		t.Fatal("Linux dot-dot semantics did not issue extra checks")
	}
	// The Linux semantics: /a/X/../b requires search permission on X.
	if err := root.Chmod("/usr/include", 0o600); err != nil { // no exec
		t.Fatal(err)
	}
	if _, err := alice.Stat("/usr/include/../../etc/passwd"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("dot-dot bypassed search check on exited dir: %v", err)
	}
}

func TestDotDotPlan9Lexical(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{DirCompleteness: true, AggressiveNegatives: true},
		memfs.New(memfs.Options{}))
	c := Install(k, Config{Seed: 7, DeepNegatives: true, SymlinkAliases: true, LexicalDotDot: true})
	root := k.NewTask(cred.Root())
	buildTree(t, root)
	alice := k.NewTask(cred.New(1000, 1000, nil, ""))
	if _, err := alice.Stat("/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	p := "/usr/include/../../etc/passwd"
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	if _, err := alice.Stat(p); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("lexical dot-dot warm stat took the slow path")
	}
	if c.k.Stats().DotDotChecks != 0 {
		t.Fatal("lexical mode issued per-dot-dot checks")
	}
}

func TestDirectoryReferenceWithFastpath(t *testing.T) {
	// §3.2 Directory References: after an ancestor permission revocation,
	// relative access from a held cwd keeps working while absolute access
	// fails — and the relative success must not incorrectly repopulate
	// absolute-path state.
	k, _, root := optimized(t)
	alice := k.NewTask(cred.New(1000, 1000, nil, ""))
	if err := alice.Chdir("/home/alice/projects"); err != nil {
		t.Fatal(err)
	}
	// Warm both.
	if _, err := alice.Stat("/home/alice/projects/code.go"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat("code.go"); err != nil {
		t.Fatal(err)
	}
	if err := root.Chmod("/home", 0o000); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat("/home/alice/projects/code.go"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("absolute access after revoke: %v", err)
	}
	if _, err := alice.Stat("code.go"); err != nil {
		t.Fatalf("relative access after revoke: %v", err)
	}
	// And again in the other order — the relative lookup above cached a
	// prefix check for code.go's dentry; the absolute path must STILL be
	// denied (it re-verifies the full prefix on the slowpath because the
	// PCC hit services the relative form too).
	if _, err := alice.Stat("/home/alice/projects/code.go"); err == nil {
		t.Fatal("absolute path allowed after relative repopulation")
	}
}

func TestChrootFastpathSeparation(t *testing.T) {
	k, _, _ := optimized(t)
	jail := k.NewTask(cred.Root())
	if err := jail.Chroot("/home/alice"); err != nil {
		t.Fatal(err)
	}
	if err := jail.Chdir("/"); err != nil {
		t.Fatal(err)
	}
	// Warm inside the jail.
	if _, err := jail.Stat("/notes.txt"); err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	if _, err := jail.Stat("/notes.txt"); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("jailed warm stat took the slow path")
	}
	// The jailed "/etc/passwd" must not leak the real one via fastpath.
	if _, err := jail.Stat("/etc/passwd"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("chroot fastpath leak: %v", err)
	}
}

func TestMkstempStyleCreationUnderCompleteDir(t *testing.T) {
	k, _, root := optimized(t)
	if err := root.Mkdir("/tmp/work", 0o755); err != nil {
		t.Fatal(err)
	}
	// Fresh directory is complete: creations skip the existence lookup.
	fsLookups := k.Stats().FSLookups
	for i := 0; i < 20; i++ {
		f, err := root.Open(fmt.Sprintf("/tmp/work/tmp.%06d", i), vfs.O_CREAT|vfs.O_EXCL|vfs.O_WRONLY, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if k.Stats().FSLookups != fsLookups {
		t.Fatalf("creation under complete dir consulted the FS for existence (%d extra lookups)",
			k.Stats().FSLookups-fsLookups)
	}
}

func TestMountAliasResigning(t *testing.T) {
	_, _, root := optimized(t)
	if err := root.Mkdir("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Create("/data/file", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.Mkdir("/view", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := root.BindMount("/data", "/view", 0); err != nil {
		t.Fatal(err)
	}
	// Alternate between the aliased paths; each must always be correct
	// (most-recent-wins resigning, §4.3).
	for i := 0; i < 6; i++ {
		p := "/data/file"
		if i%2 == 1 {
			p = "/view/file"
		}
		n, err := root.Stat(p)
		if err != nil {
			t.Fatalf("iteration %d (%s): %v", i, p, err)
		}
		if !n.Mode.IsRegular() {
			t.Fatalf("wrong node via %s", p)
		}
	}
	n1, _ := root.Stat("/data/file")
	n2, _ := root.Stat("/view/file")
	if n1.ID != n2.ID {
		t.Fatal("aliases diverged")
	}
}

func TestNamespacePrivateDLHT(t *testing.T) {
	k, _, root := optimized(t)
	other := k.NewTask(cred.Root())
	other.UnshareNamespace()
	if err := root.Mkdir("/mnt", 0o755); err != nil {
		t.Fatal(err)
	}
	private := memfs.New(memfs.Options{})
	if _, err := other.Mount(private, "/mnt", 0); err != nil {
		t.Fatal(err)
	}
	if err := other.Create("/mnt/secret", 0o644); err != nil {
		t.Fatal(err)
	}
	// Warm in the private namespace.
	if _, err := other.Stat("/mnt/secret"); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Stat("/mnt/secret"); err != nil {
		t.Fatal(err)
	}
	// The init namespace must not see it — even through the fastpath.
	for i := 0; i < 3; i++ {
		if _, err := root.Stat("/mnt/secret"); !errors.Is(err, fsapi.ENOENT) {
			t.Fatalf("cross-namespace DLHT leak: %v", err)
		}
	}
}

func TestUnlinkThenFastpathENOENT(t *testing.T) {
	k, _, root := optimized(t)
	p := "/home/alice/notes.txt"
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	if err := root.Unlink(p); err != nil {
		t.Fatal(err)
	}
	// The dentry flipped negative in place; the fastpath must now answer
	// ENOENT without a slow walk.
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("post-unlink ENOENT took the slow path")
	}
}

func TestEvictionKeepsFastpathSafe(t *testing.T) {
	k, _, root := optimized(t)
	for i := 0; i < 50; i++ {
		if err := root.Create(fmt.Sprintf("/tmp/f%02d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := root.Stat(fmt.Sprintf("/tmp/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	k.DropCaches()
	// Everything still resolves correctly after total eviction.
	for i := 0; i < 50; i++ {
		if _, err := root.Stat(fmt.Sprintf("/tmp/f%02d", i)); err != nil {
			t.Fatalf("f%02d after dropcaches: %v", i, err)
		}
	}
}
