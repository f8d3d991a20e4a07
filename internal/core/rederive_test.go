package core

import (
	"fmt"
	"testing"

	"dircache/internal/audit"
	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/vfs"
)

// A structural range mark re-derives instead of discarding: at a covered
// descendant's first probe fresh recomputes the key its path hashes to now
// and keeps the table entry while that is the key it was published under.
// These tests count what a walk below a rename costs, hold every answer to
// the cache-less kernel's, and pin each case that must still discard.

// twin is the optimized kernel beside a cache-less one built by the same
// calls, with root and an unprivileged user on each.
type twin struct {
	k          *vfs.Kernel
	c          *Core
	root, user *vfs.Task
	base       struct{ root, user *vfs.Task }
}

// newTwin builds /a/x, /a/sub/y and /a/l -> x on both kernels, with /other
// and /bind beside them for the bind-mount case.
func newTwin(t *testing.T) *twin {
	t.Helper()
	tw := &twin{k: vfs.NewKernel(vfs.Config{DirCompleteness: true, AggressiveNegatives: true}, memfs.New(memfs.Options{}))}
	tw.c = Install(tw.k, Config{Seed: 31, DeepNegatives: true})
	tw.root = tw.k.NewTask(cred.Root())
	tw.user = tw.k.NewTask(cred.New(1000, 1000, nil, ""))
	bk := vfs.NewKernel(vfs.Config{}, memfs.New(memfs.Options{}))
	tw.base.root = bk.NewTask(cred.Root())
	tw.base.user = bk.NewTask(cred.New(1000, 1000, nil, ""))
	for _, d := range []string{"/a", "/a/sub", "/other", "/bind"} {
		tw.both(t, func(r *vfs.Task) error { return r.Mkdir(d, 0o755) })
	}
	for _, f := range []string{"/a/x", "/a/sub/y"} {
		tw.both(t, func(r *vfs.Task) error { return r.Create(f, 0o644) })
	}
	tw.both(t, func(r *vfs.Task) error { return r.Symlink("x", "/a/l") })
	return tw
}

// both runs op as root on the optimized kernel and then on the baseline.
func (tw *twin) both(t *testing.T, op func(root *vfs.Task) error) {
	t.Helper()
	if err := op(tw.root); err != nil {
		t.Fatal(err)
	}
	if err := op(tw.base.root); err != nil {
		t.Fatal(err)
	}
}

// roundTrip renames from to to and back on both kernels.
func (tw *twin) roundTrip(t *testing.T, from, to string) {
	t.Helper()
	tw.both(t, func(r *vfs.Task) error { return r.Rename(from, to) })
	tw.both(t, func(r *vfs.Task) error { return r.Rename(to, from) })
}

// cost is what a stretch of walks took.
type cost struct{ slow, dlhtMiss, populations, kept int64 }

func (tw *twin) cost() cost {
	s := tw.k.Stats()
	return cost{s.SlowWalks, s.DLHTMisses, s.Populations, s.KeptUnmoved}
}

func (a cost) minus(b cost) cost {
	return cost{a.slow - b.slow, a.dlhtMiss - b.dlhtMiss, a.populations - b.populations, a.kept - b.kept}
}

// stat answers path for the user (or root) on both kernels and fails the
// test unless the two agree on the errno and the node.
func (tw *twin) stat(t *testing.T, path string, asUser bool) fsapi.Errno {
	t.Helper()
	opt, base := tw.root, tw.base.root
	if asUser {
		opt, base = tw.user, tw.base.user
	}
	got, gerr := opt.Lstat(path)
	want, werr := base.Lstat(path)
	if fsapi.ToErrno(gerr) != fsapi.ToErrno(werr) || got.Mode != want.Mode || got.ID != want.ID {
		t.Fatalf("%q answered (%v, %v %d), the cache-less kernel (%v, %v %d)",
			path, gerr, got.Mode, got.ID, werr, want.Mode, want.ID)
	}
	return fsapi.ToErrno(gerr)
}

// warm stats every path three times as each credential: past admission,
// published, and memoized in both PCCs.
func (tw *twin) warm(t *testing.T, paths ...string) {
	t.Helper()
	for i := 0; i < 3; i++ {
		for _, p := range paths {
			tw.stat(t, p, false)
			tw.stat(t, p, true)
		}
	}
}

// roundTripProbes are the paths below /a a round trip keeps: files, a
// directory and a negative. (A deep negative is kept too, but its prefix
// cannot be re-checked in place — a negative ancestor — so a seq bump
// sends it to the slow walk whatever the mark's class.)
var roundTripProbes = []string{"/a/x", "/a/sub", "/a/sub/y", "/a/ghost"}

// TestRenameRoundTripKeepsEntries: a rename that puts the directory back
// leaves every path below it naming the dentry it named, so a stat below
// it re-derives and keeps the entry — no slow walk, no DLHT miss, no
// population — and answers what the cache-less kernel answers, a negative
// included. The seq bump still happens: each
// credential's first walk re-checks its prefix in place.
func TestRenameRoundTripKeepsEntries(t *testing.T) {
	tw := newTwin(t)
	tw.warm(t, roundTripProbes...)
	for round := 0; round < 3; round++ {
		tw.roundTrip(t, "/a", "/a.mv")
		before, rechecks := tw.cost(), tw.k.Stats().PrefixRechecks
		for _, p := range roundTripProbes {
			tw.stat(t, p, false)
			tw.stat(t, p, true)
		}
		d := tw.cost().minus(before)
		if d.slow != 0 || d.dlhtMiss != 0 || d.populations != 0 {
			t.Fatalf("round %d: %d slow walks, %d DLHT misses, %d populations below a round trip, want 0", round, d.slow, d.dlhtMiss, d.populations)
		}
		if want := int64(len(roundTripProbes)); d.kept != want {
			t.Fatalf("round %d: %d entries kept, want %d", round, d.kept, want)
		}
		if got := tw.k.Stats().PrefixRechecks - rechecks; got != 2*int64(len(roundTripProbes)) {
			t.Fatalf("round %d: %d prefix re-checks, want one per credential and path (%d): a kept entry skipped its seq bump", round, got, 2*len(roundTripProbes))
		}
	}
	tw.auditClean(t)
}

// auditClean sweeps and runs the auditor at quiescence; the fastpath's
// table checks must have run and found nothing.
func (tw *twin) auditClean(t *testing.T) {
	t.Helper()
	r := audit.New(tw.k, tw.c).RunUntilValid(5)
	if !r.Valid || r.Violations() != 0 || r.Checked["dlht_sig"] == 0 || r.Checked["dlht_fresh"] == 0 {
		t.Fatalf("audit: %s", r.Summary())
	}
}

// TestPermanentMoveStillDiscards: /a -> /b changes every key below it, so
// the old paths are ENOENT and the entries go — the sweep discards what no
// probe reached, and the auditor's signature and freshness checks are
// clean after it.
func TestPermanentMoveStillDiscards(t *testing.T) {
	tw := newTwin(t)
	tw.warm(t, roundTripProbes...)
	tw.both(t, func(r *vfs.Task) error { return r.Rename("/a", "/b") })
	before := tw.cost()
	if got := tw.stat(t, "/a/x", false); got != fsapi.ENOENT {
		t.Fatalf("/a/x after the move: %v, want ENOENT", got)
	}
	if n := tw.c.SweepStale(); n == 0 {
		t.Fatal("the sweep discarded nothing below a permanent move")
	}
	if d := tw.cost().minus(before); d.kept != 0 {
		t.Fatalf("%d entries kept below a permanent move", d.kept)
	}
	tw.stat(t, "/b/x", false)
	tw.stat(t, "/b/sub/y", true)
	tw.auditClean(t)
}

// TestMountOverMarkedDirectoryDiscards: a mount over /a leaves /a's parent
// chain as it was, so the old /a/x re-derives to its own key — but the
// path now crosses into the mounted file system. A dentry validated before
// the newest mount mark must discard: stats below /a answer from the
// mounted tree (x a directory there, sub absent).
func TestMountOverMarkedDirectoryDiscards(t *testing.T) {
	tw := newTwin(t)
	tw.warm(t, roundTripProbes...)
	tw.roundTrip(t, "/a", "/a.mv")
	mfs := func() fsapi.FileSystem {
		fs := memfs.New(memfs.Options{})
		if _, err := fs.Mkdir(fs.Root().ID, "x", 0o755, 0, 0); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	tw.both(t, func(r *vfs.Task) error { _, err := r.Mount(mfs(), "/a", 0); return err })
	before := tw.cost()
	for _, p := range []string{"/a/x", "/a/sub/y", "/a/sub"} {
		tw.stat(t, p, false)
	}
	if d := tw.cost().minus(before); d.kept != 0 {
		t.Fatalf("%d entries kept below a new mount", d.kept)
	}
	tw.both(t, func(r *vfs.Task) error { return r.Unmount("/a") })
	for _, p := range roundTripProbes {
		tw.stat(t, p, false)
	}
	tw.auditClean(t)
}

// TestCreateInRenameWindow: with the directory at /a.mv between the two
// renames, x is created over a published negative — once the negative
// /a/x published before the first rename, once the negative /a.mv/x
// published inside the window. After the rename back /a/x exists and
// /a.mv/x does not, whichever key the entry carried.
func TestCreateInRenameWindow(t *testing.T) {
	for _, inWindow := range []bool{false, true} {
		t.Run(fmt.Sprintf("negative-in-window=%v", inWindow), func(t *testing.T) {
			tw := newTwin(t)
			tw.both(t, func(r *vfs.Task) error { return r.Unlink("/a/x") })
			tw.warm(t, "/a/x", "/a/sub/y")
			tw.both(t, func(r *vfs.Task) error { return r.Rename("/a", "/a.mv") })
			if inWindow {
				tw.warm(t, "/a.mv/x")
			}
			tw.both(t, func(r *vfs.Task) error { return r.Create("/a.mv/x", 0o644) })
			tw.both(t, func(r *vfs.Task) error { return r.Rename("/a.mv", "/a") })
			for i := 0; i < 2; i++ {
				if got := tw.stat(t, "/a/x", true); got != 0 {
					t.Fatalf("/a/x created in the window: %v", got)
				}
				tw.stat(t, "/a.mv/x", true)
				tw.stat(t, "/a/sub/y", true)
			}
			tw.auditClean(t)
		})
	}
}

// TestChmodInRenameWindow: a chmod 0700 of /a.mv between the renames
// revokes the user's prefix checks below it. The kept entry's seq bump is
// what makes the user's PCC entry for /a/x stale: the walk misses the PCC,
// the re-check refuses, and the slow walk says EACCES. Skip the bump and
// the old PCC entry answers.
func TestChmodInRenameWindow(t *testing.T) {
	tw := newTwin(t)
	tw.warm(t, roundTripProbes...)
	tw.both(t, func(r *vfs.Task) error { return r.Rename("/a", "/a.mv") })
	tw.both(t, func(r *vfs.Task) error { return r.Chmod("/a.mv", 0o700) })
	tw.both(t, func(r *vfs.Task) error { return r.Rename("/a.mv", "/a") })
	for _, p := range []string{"/a/x", "/a/sub/y", "/a/ghost"} {
		before := tw.cost()
		if got := tw.stat(t, p, true); got != fsapi.EACCES {
			t.Fatalf("%q under a 0700 directory: %v, want EACCES", p, got)
		}
		if d := tw.cost().minus(before); d.slow != 1 || d.dlhtMiss != 0 {
			t.Fatalf("%q: %d slow walks, %d DLHT misses; want the kept entry's PCC miss to fall to 1 slow walk", p, d.slow, d.dlhtMiss)
		}
		if got := tw.stat(t, p, false); got == fsapi.EACCES {
			t.Fatalf("root refused %q", p)
		}
	}
	tw.both(t, func(r *vfs.Task) error { return r.Chmod("/a", 0o755) })
	for _, p := range roundTripProbes {
		tw.stat(t, p, true)
	}
	tw.auditClean(t)
}

// TestBindMountAndSymlinkDiscard: a symlink's entry pins a resolution, so
// it never re-derives; and once a bind mount exists a dentry has more than
// one canonical path, so nothing does.
func TestBindMountAndSymlinkDiscard(t *testing.T) {
	t.Run("symlink", func(t *testing.T) {
		tw := newTwin(t)
		tw.warm(t, "/a/l", "/a/x")
		tw.roundTrip(t, "/a", "/a.mv")
		before := tw.cost()
		tw.stat(t, "/a/l", false)
		if d := tw.cost().minus(before); d.kept != 0 || d.dlhtMiss != 1 {
			t.Fatalf("lstat of a symlink below a round trip: %d kept, %d DLHT misses; want 0 and 1", d.kept, d.dlhtMiss)
		}
		tw.stat(t, "/a/x", false)
		if d := tw.cost().minus(before); d.kept != 1 {
			t.Fatalf("the file beside the symlink: %d kept, want 1", d.kept)
		}
	})
	t.Run("bind-mount", func(t *testing.T) {
		tw := newTwin(t)
		tw.warm(t, roundTripProbes...)
		tw.both(t, func(r *vfs.Task) error { _, err := r.BindMount("/other", "/bind", 0); return err })
		tw.roundTrip(t, "/a", "/a.mv")
		before := tw.cost()
		for _, p := range roundTripProbes {
			tw.stat(t, p, false)
		}
		if d := tw.cost().minus(before); d.kept != 0 || d.slow == 0 {
			t.Fatalf("below a round trip with a bind mount present: %d kept, %d slow walks; want 0 kept", d.kept, d.slow)
		}
	})
}
