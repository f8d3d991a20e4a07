package core

import (
	"errors"
	"fmt"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/vfs"
)

func TestUnlinkKeepsPrefixChecks(t *testing.T) {
	// Unlink must not shoot down the dentry's fastpath state: the path's
	// prefix is unchanged, so post-unlink ENOENT and post-recreate hits
	// should both come from the fastpath without new slow walks.
	k, _, root := optimized(t)
	p := "/etc/reused"
	if err := root.Create(p, 0o644); err != nil {
		t.Fatal(err)
	}
	root.Stat(p)
	root.Stat(p) // warm fastpath
	if err := root.Unlink(p); err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("post-unlink ENOENT took the slow path")
	}
	if err := root.Create(p, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("post-recreate stat took the slow path (lock-file churn case)")
	}
}

func TestUnlinkWithDeepChildrenInvalidates(t *testing.T) {
	// A file with cached ENOTDIR children must shoot them down on unlink.
	k, _, root := optimized(t)
	if _, err := root.Stat("/etc/passwd/sub/x"); !errors.Is(err, fsapi.ENOTDIR) {
		t.Fatal("expected ENOTDIR")
	}
	if err := root.Unlink("/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	// The path is now ENOENT (passwd gone), not a stale ENOTDIR.
	if _, err := root.Stat("/etc/passwd/sub/x"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("stale ENOTDIR after unlink: %v", err)
	}
	_ = k
}

func TestChrootPlusBindMountFastpath(t *testing.T) {
	k, _, root := optimized(t)
	if err := root.Mkdir("/jail", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Walk("/jail", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewTask(cred.Root()).BindMount("/usr", "/jail", 0); err != nil {
		t.Fatal(err)
	}
	jail := k.NewTask(cred.Root())
	if err := jail.Chroot("/jail"); err != nil {
		t.Fatal(err)
	}
	if err := jail.Chdir("/"); err != nil {
		t.Fatal(err)
	}
	// /include/sys/types.h inside the jail = /usr/include/sys/types.h.
	if _, err := jail.Stat("/include/sys/types.h"); err != nil {
		t.Fatalf("jail resolve: %v", err)
	}
	slow := k.Stats().SlowWalks
	if _, err := jail.Stat("/include/sys/types.h"); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("warm jailed stat took the slow path")
	}
	// The host path still resolves correctly too (mount-alias resigning).
	if _, err := root.Stat("/usr/include/sys/types.h"); err != nil {
		t.Fatal(err)
	}
}

func TestUnmountInvalidatesMountedTree(t *testing.T) {
	k, _, root := optimized(t)
	data := memfs.New(memfs.Options{})
	if err := root.Mkdir("/mnt", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Mount(data, "/mnt", 0); err != nil {
		t.Fatal(err)
	}
	if err := root.Create("/mnt/inside", 0o644); err != nil {
		t.Fatal(err)
	}
	root.Stat("/mnt/inside")
	root.Stat("/mnt/inside") // warm
	if err := root.Unmount("/mnt"); err != nil {
		t.Fatal(err)
	}
	// The uncovered (empty) directory shows through; the old fastpath
	// entry must not resolve /mnt/inside anymore.
	for i := 0; i < 3; i++ {
		if _, err := root.Stat("/mnt/inside"); !errors.Is(err, fsapi.ENOENT) {
			t.Fatalf("stale mounted-tree entry after unmount: %v", err)
		}
	}
	// Remount: resolution through the fresh mount works again.
	if _, err := root.Mount(data, "/mnt", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/mnt/inside"); err != nil {
		t.Fatal(err)
	}
	_ = k
}

// TestTinyPCCStaysOnFastpath: a directory working set far larger than a
// 1 KiB PCC (128 entries) still converges to fastpath answers, because a
// PCC miss on a DLHT hit is re-checked in place rather than slow-walked.
func TestTinyPCCStaysOnFastpath(t *testing.T) {
	kcfg := vfs.Config{DirCompleteness: true, AggressiveNegatives: true}
	k := vfs.NewKernel(kcfg, memfs.New(memfs.Options{}))
	Install(k, Config{Seed: 5, PCCBytes: 1 << 10, DeepNegatives: true, SymlinkAliases: true})
	root := k.NewTask(cred.Root())
	if err := root.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := root.Create(fmt.Sprintf("/d/f%05d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < n; i++ {
			if _, err := root.Stat(fmt.Sprintf("/d/f%05d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Steady state: a full pass should be nearly all fastpath hits, the
	// PCC's capacity misses answered by prefix re-checks.
	s0 := k.Stats()
	for i := 0; i < n; i++ {
		root.Stat(fmt.Sprintf("/d/f%05d", i))
	}
	s1 := k.Stats()
	if slowDelta := s1.SlowWalks - s0.SlowWalks; slowDelta > n/10 {
		t.Fatalf("steady-state pass still slow-walked %d/%d lookups", slowDelta, n)
	}
	if s1.PrefixRechecks-s0.PrefixRechecks == 0 {
		t.Fatal("no prefix re-check: a 1 KiB PCC cannot hold the working set")
	}
}

func TestStartTrustedRecoversAfterEviction(t *testing.T) {
	// After the cwd's memoized prefix check is evicted (PCC invalidated to
	// simulate capacity loss), relative lookups must re-verify the prefix
	// live and resume populating rather than starving.
	k, c, root := optimized(t)
	alice := k.NewTask(cred.New(1000, 1000, nil, ""))
	if err := root.Chmod("/home/alice", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := alice.Chdir("/home/alice/projects"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat("code.go"); err != nil {
		t.Fatal(err)
	}
	// Nuke alice's PCC.
	c.pccFor(alice.Cred()).Invalidate()
	// Relative lookup: slow (PCC empty), but population must recover via
	// live prefix verification...
	if _, err := alice.Stat("code.go"); err != nil {
		t.Fatal(err)
	}
	// ...so the next one fast-hits again.
	slow := k.Stats().SlowWalks
	if _, err := alice.Stat("code.go"); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("population starved after PCC eviction")
	}
	// And the directory-reference rule still holds: revoke the ancestor,
	// relative keeps working (slow path), absolute is denied.
	if err := root.Chmod("/home", 0o000); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Stat("code.go"); err != nil {
		t.Fatalf("relative after revoke: %v", err)
	}
	if _, err := alice.Stat("/home/alice/projects/code.go"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("absolute after revoke: %v", err)
	}
	// The relative success must NOT have re-enabled the absolute fastpath.
	if _, err := alice.Stat("/home/alice/projects/code.go"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("absolute after relative repopulation: %v", err)
	}
}

func TestRenameStillInvalidates(t *testing.T) {
	// The unlink optimization must not have weakened rename coherence.
	k, _, root := optimized(t)
	root.Stat("/usr/include/sys/types.h")
	root.Stat("/usr/include/sys/types.h")
	if err := root.Rename("/usr/include", "/usr/inc2"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat("/usr/include/sys/types.h"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("old path after rename: %v", err)
	}
	if _, err := root.Stat("/usr/inc2/sys/types.h"); err != nil {
		t.Fatal(err)
	}
	_ = k
}

func TestCoreStatsSurface(t *testing.T) {
	k, c, root := optimized(t)
	root.Stat("/etc/passwd")
	root.Stat("/etc/passwd")
	root.Stat("/etc/nothing")
	root.Stat("/etc/nothing")
	st := c.k.Stats()
	if st.FastHits == 0 || st.FastNeg == 0 {
		t.Fatalf("core stats: %+v", st)
	}
	if st.TryFast < st.FastHits {
		t.Fatalf("TryFast %d < Hits %d", st.TryFast, st.FastHits)
	}
	if st.Populations == 0 {
		t.Fatal("no populations recorded")
	}
	_ = k
}

func TestSeqWraparoundInvalidatesAllPCCs(t *testing.T) {
	k, c, root := optimized(t)
	// Warm a PCC entry for a stable path.
	root.Stat("/etc/passwd")
	root.Stat("/etc/passwd")
	warm, err := root.Walk("/etc/passwd", 0)
	if err != nil {
		t.Fatal(err)
	}
	pcc := c.pccFor(root.Cred())
	if !pcc.Lookup(warm.D.ID(), dentrySeq(warm.D)) {
		t.Fatal("no warm PCC entry to wipe: the test exercises nothing")
	}
	// Push another dentry's seq to the wrap boundary and trigger the
	// final bump through an invalidation.
	ref, err := root.Walk("/tmp", 0)
	if err != nil {
		t.Fatal(err)
	}
	fd := fast(ref.D)
	fd.Seq.Store(pccSeqMask - 1) // next two Add(1)s cross zero (mod 2^31)
	flushes := c.k.Stats().PCCFlushes
	c.BeginMutation(ref.D, vfs.InvalPerm).End()
	c.BeginMutation(ref.D, vfs.InvalPerm).End()
	// All PCCs were wiped, the unrelated warm entry included.
	if c.k.Stats().PCCFlushes == flushes || pcc.Lookup(warm.D.ID(), dentrySeq(warm.D)) {
		t.Fatal("PCCs survived a seq wraparound")
	}
	// And the path repopulates: its table entry stood, so the first stat
	// re-checks the prefix in place and the second hits the PCC.
	slow := k.Stats().SlowWalks
	for i := 0; i < 2; i++ {
		if _, err := root.Stat("/etc/passwd"); err != nil {
			t.Fatal(err)
		}
	}
	if k.Stats().SlowWalks != slow || !pcc.Lookup(warm.D.ID(), dentrySeq(warm.D)) {
		t.Fatal("fastpath did not recover after wraparound wipe")
	}
}

// TestFastHitKeepsDentryWarm: a fastpath hit is a use. The dentries hot
// enough to be answered by the DLHT are never seen by the slow walk again,
// so if only the slow walk told the shrinker about hits they would be the
// coldest entries it finds. A file and a negative served only by fastpath
// hits since the hand last passed outlive every untouched sibling.
func TestFastHitKeepsDentryWarm(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{DirCompleteness: true, AggressiveNegatives: true},
		memfs.New(memfs.Options{}))
	Install(k, Config{Seed: 7, DeepNegatives: true, AdmitAfter: 1})
	root := k.NewTask(cred.Root())
	if err := root.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	// Slab order is hand order: hot and ghost sit in the middle of the
	// siblings, so the hand meets them with siblings still to come.
	const siblings = 16
	mkCold := func(from, to int) {
		for i := from; i < to; i++ {
			if err := root.Create(fmt.Sprintf("/d/cold%02d", i), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	statHot := func() {
		if _, err := root.Stat("/d/hot"); err != nil {
			t.Fatalf("stat /d/hot: %v", err)
		}
		if _, err := root.Stat("/d/ghost"); !errors.Is(err, fsapi.ENOENT) {
			t.Fatalf("stat /d/ghost: %v", err)
		}
	}
	mkCold(0, siblings/2)
	if err := root.Create("/d/hot", 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // onto the fastpath, positive and negative
		statHot()
	}
	mkCold(siblings/2, siblings)

	// One victim makes the hand go round once: every dentry's referenced
	// flag from its insertion is gone, and the first sibling with it.
	if n := k.Shrink(1); n != 1 {
		t.Fatalf("Shrink(1) evicted %d", n)
	}
	before := k.Stats()
	for i := 0; i < 4; i++ {
		statHot()
	}
	if d := k.Stats().Delta(before); d.SlowWalks != 0 || d.FastHits != 8 || d.FastNeg != 4 {
		t.Fatalf("the uses were not fastpath hits: %d slow walks, %d fast hits, %d negative", d.SlowWalks, d.FastHits, d.FastNeg)
	}
	if n := k.Shrink(siblings - 1); n != siblings-1 {
		t.Fatalf("Shrink(%d) evicted %d", siblings-1, n)
	}
	before = k.Stats()
	statHot()
	if d := k.Stats().Delta(before); d.FastHits != 2 {
		t.Fatalf("after the Shrink %d of 2 stats were fastpath hits: the shrinker took a dentry used since its hand last passed", d.FastHits)
	}
	for i := 0; i < siblings; i++ {
		if st := k.CachedPathClaim(fmt.Sprintf("/d/cold%02d", i)); st != vfs.CachedMiss {
			t.Fatalf("untouched sibling cold%02d is still cached (claim %d)", i, st)
		}
	}
}

// TestSlotReuseResetsFastState: the fast state lives in the dentry's slot,
// so the slot's next tenant must start from nothing the last one left — no
// cached symlink target, version, signature state or table entry — except
// ValidGen, which starts at the current shootdown generation. And a PCC
// entry minted for the old tenant must not authorize the new one.
func TestSlotReuseResetsFastState(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{}, memfs.New(memfs.Options{}))
	c := Install(k, Config{Seed: 31, AdmitAfter: 1})
	root := k.NewTask(cred.Root())
	if err := root.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Create("/d/t", 0o644); err != nil {
		t.Fatal(err)
	}
	if err := root.Symlink("t", "/d/l"); err != nil {
		t.Fatal(err)
	}
	dir, err := root.Walk("/d", 0)
	if err != nil {
		t.Fatal(err)
	}
	dir.D.Ref()
	defer dir.D.Unref()
	root.Stat("/d/l") // publishes the link with its target
	if err := root.Chmod("/d", 0o755); err != nil {
		t.Fatal(err) // a range mark over the link: its next probe bumps Seq
	}
	root.Stat("/d/l")
	root.Stat("/d/l")
	l, err := root.Walk("/d/l", vfs.WalkNoFollow)
	if err != nil {
		t.Fatal(err)
	}
	fd := fast(l.D)
	var st sig.State
	if fd.Seq.Load() == 0 || fd.Target.Load() == 0 || fd.InTable.Load() == nil || !fd.State.Load(c.key, &st) {
		t.Fatalf("the link's fast state is not all set up: seq %d, target %#x, in a table %v", fd.Seq.Load(), fd.Target.Load(), fd.InTable.Load() != nil)
	}
	pcc := c.pccFor(root.Cred())
	oldID, oldSeq, old := l.D.ID(), dentrySeq(l.D), l.D.SelfRef()
	if !pcc.Lookup(oldID, oldSeq) {
		t.Fatal("no PCC entry for the old tenant: the test exercises nothing")
	}

	l.D.Ref() // a pinned dentry leaves the cache on unlink instead of going negative
	if err := root.Unlink("/d/l"); err != nil {
		t.Fatal(err)
	}
	l.D.Unref()
	k.ReclaimAll()
	if k.DentryFromRef(old) != nil {
		t.Fatal("the unlinked link's slot was not retired")
	}
	next := slab.Ref{H: old.H, G: old.G + 2}
	var d *vfs.Dentry
	for i := 0; d == nil && i < 1<<12; i++ {
		k.AddSpecialNegative(dir.D, fmt.Sprintf("n%d", i), false)
		d = k.DentryFromRef(next)
	}
	if d == nil {
		t.Fatal("the slot was never reused")
	}
	nfd := fast(d)
	for _, f := range []struct {
		name string
		bad  bool
	}{
		{"Seq", nfd.Seq.Load() != 0},
		{"ShootMark", nfd.ShootMark.Load() != 0},
		{"Touches", nfd.Touches.Load() != 0},
		{"MntP", nfd.MntP.Load() != nil},
		{"State", nfd.State.Load(c.key, &st)},
		{"Link", nfd.Link.InChain()},
		{"InTable", nfd.InTable.Load() != nil},
		{"Target", nfd.Target.Load() != 0},
		{"TargetSeq", nfd.TargetSeq.Load() != 0},
		{"PubSeq", nfd.PubSeq != 0},
	} {
		if f.bad {
			t.Errorf("the new tenant inherited the old one's %s", f.name)
		}
	}
	if vg, gen := nfd.ValidGen.Load(), c.ShootGen(); vg != gen || gen == 0 {
		t.Errorf("the new tenant starts at ValidGen %d, want the shootdown generation %d (nonzero: the chmod stamped one)", vg, gen)
	}
	if pcc.Lookup(d.ID(), dentrySeq(d)) {
		t.Error("a PCC entry minted for the slot's old tenant authorizes the new one")
	}
}
