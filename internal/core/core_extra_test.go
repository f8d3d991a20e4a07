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

func TestPCCResizeUnderRealWorkload(t *testing.T) {
	// A directory working set much larger than a tiny initial PCC must
	// trigger resizes and converge to fastpath hits.
	kcfg := vfs.Config{DirCompleteness: true, AggressiveNegatives: true}
	k := vfs.NewKernel(kcfg, memfs.New(memfs.Options{}))
	c := Install(k, Config{Seed: 5, PCCBytes: 1 << 10, DeepNegatives: true, SymlinkAliases: true})
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
	pcc := c.pccFor(root.Cred())
	if pcc.Resizes() == 0 {
		t.Fatal("PCC never resized under a large working set")
	}
	// Steady state: a full pass should be nearly all fastpath hits.
	slow0 := k.Stats().SlowWalks
	for i := 0; i < n; i++ {
		root.Stat(fmt.Sprintf("/d/f%05d", i))
	}
	slowDelta := k.Stats().SlowWalks - slow0
	if slowDelta > n/10 {
		t.Fatalf("post-resize pass still slow-walked %d/%d lookups", slowDelta, n)
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
	st := c.Stats()
	if st.Hits == 0 || st.NegHits == 0 {
		t.Fatalf("core stats: %+v", st)
	}
	if st.TryFast < st.Hits {
		t.Fatalf("TryFast %d < Hits %d", st.TryFast, st.Hits)
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
	fd.seq.Store(pccSeqMask - 1) // next two Add(1)s cross zero (mod 2^31)
	flushes := c.Stats().PCCFlushes
	c.BeginMutation(ref.D, vfs.InvalPerm).End()
	c.BeginMutation(ref.D, vfs.InvalPerm).End()
	// All PCCs were wiped, the unrelated warm entry included.
	if c.Stats().PCCFlushes == flushes || pcc.Lookup(warm.D.ID(), dentrySeq(warm.D)) {
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

// TestCoherencePublication pins what BeginMutation puts in the coherence
// log and when: nothing until EnableCoherence; then one record per root
// invalidation, carrying the path the dentry had when the mutation began
// and appearing only once the mutation has ended (a peer that applied it
// earlier could re-read the backend's old state); never one for an
// invalidation a peer asked for.
func TestCoherencePublication(t *testing.T) {
	_, c, root := optimized(t)
	ref, err := root.Walk("/home/alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.BeginMutation(ref.D, vfs.InvalPerm).End()
	if c.Coherence().Head() != 0 {
		t.Fatal("a Core that is not a shard published a record")
	}

	c.EnableCoherence()
	log := c.Coherence()
	c.EnableCoherence()
	if c.Coherence() != log {
		t.Fatal("EnableCoherence replaced the log on its second call")
	}
	end := c.BeginMutation(ref.D, vfs.InvalRename)
	if log.Head() != 0 {
		t.Fatal("record visible before the mutation ended")
	}
	end.End()
	recs, next, fell := log.Since(0)
	if fell || next != 1 || len(recs) != 1 || recs[0].Path != "/home/alice" || recs[0].Note != vfs.InvalRename.String() {
		t.Fatalf("after one rename: recs=%+v next=%d fell=%v", recs, next, fell)
	}
	for _, why := range []vfs.Invalidation{vfs.InvalRemote, vfs.InvalRemotePerm} {
		c.BeginMutation(ref.D, why).End()
		if log.Head() != 1 {
			t.Fatalf("a peer-applied invalidation (%d) was republished", why)
		}
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
	if d := k.Stats().Delta(before); d.SlowWalks != 0 || d.FastHits != 8 || d.FastNegHits != 4 {
		t.Fatalf("the uses were not fastpath hits: %d slow walks, %d fast hits, %d negative", d.SlowWalks, d.FastHits, d.FastNegHits)
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
