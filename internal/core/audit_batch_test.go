package core

import (
	"errors"
	"testing"

	"dircache/internal/audit"
	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/sig"
	"dircache/internal/vfs"
)

// warmBatchSubtree admits and publishes /a/b/c and /a/b/c/file so a later
// bulk mutation over /a has live DLHT entries to shoot down.
func warmBatchSubtree(t *testing.T, c *Core, root interface {
	Stat(string) (fsapi.NodeInfo, error)
}) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if _, err := root.Stat("/a/b/c/file"); err != nil {
			t.Fatal(err)
		}
		if _, err := root.Stat("/a/b/c"); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Populations == 0 {
		t.Fatal("fastpath never populated; nothing to shoot down")
	}
}

// TestBatchShootdownLazyDiscard checks the §4.3 teardown optimization
// end-to-end: a rename over a populated subtree takes one epoch-tagged
// range mark instead of an eager per-dentry walk, stale entries are
// discarded lazily, and after one sweep the auditor (whose dlht_fresh
// check would flag any survivor) runs clean.
func TestBatchShootdownLazyDiscard(t *testing.T) {
	k, c, root := auditFixture(t)
	warmBatchSubtree(t, c, root)

	s0 := c.Stats()
	if err := root.Rename("/a", "/mv/a"); err != nil {
		t.Fatal(err)
	}
	d := c.Stats()
	if d.BatchShootdowns-s0.BatchShootdowns != 1 {
		t.Fatalf("want 1 batch shootdown, got %d", d.BatchShootdowns-s0.BatchShootdowns)
	}
	// The range mark replaces the per-descendant seq-bump walk: only the
	// root is invalidated eagerly.
	if got := d.SeqBumps - s0.SeqBumps; got != 1 {
		t.Fatalf("batch shootdown should bump only the root, got %d bumps", got)
	}

	// One sweep discards every entry the mark covered; a second finds
	// nothing left.
	if n := c.SweepStale(); n == 0 {
		t.Fatal("sweep discarded nothing despite the range mark")
	}
	if n := c.SweepStale(); n != 0 {
		t.Fatalf("second sweep still discarded %d entries", n)
	}
	if c.Stats().LazyShootdowns == s0.LazyShootdowns {
		t.Fatal("no lazy shootdowns recorded")
	}

	// The old path must not fast-hit out of a stale entry.
	if _, err := root.Stat("/a/b/c/file"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT for the old path, got %v", err)
	}
	// The new path resolves.
	if _, err := root.Stat("/mv/a/b/c/file"); err != nil {
		t.Fatal(err)
	}

	aud := audit.New(k, c)
	if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit dirty after batch shootdown + sweep: %s", r.Summary())
	}
	_ = k
}

// TestAuditCatchesMissedBatchMark injects the bug every shootdown now
// shares: the mutation journals a batch_shoot event but its range mark
// never lands, so the subtree's published entries — and, for a permission
// change, every credential's memoized prefix checks below it — keep
// looking fresh forever. journal_batch_shoot must fire for both reasons;
// for the chmod 000 pcc_prefix must too, which it can only do by judging
// an entry as a consumer would (fresh first, then the seq compare): the
// control arm, same chmod with its mark, leaves the same entries standing
// until their first probe and must audit clean.
func TestAuditCatchesMissedBatchMark(t *testing.T) {
	chmod := func(mode fsapi.Mode) func(*vfs.Task) error {
		return func(root *vfs.Task) error { return root.Chmod("/a", mode) }
	}
	for _, tc := range []struct {
		name          string
		mutate, undo  func(root *vfs.Task) error
		inject        bool
		want, wantNot []string
	}{
		{name: "rename", inject: true,
			mutate: func(root *vfs.Task) error { return root.Rename("/a", "/mv/a") },
			undo:   func(root *vfs.Task) error { return root.Rename("/mv/a", "/a") },
			want:   []string{"journal_batch_shoot"}},
		{name: "chmod", inject: true, mutate: chmod(0), undo: chmod(0o755),
			want: []string{"journal_batch_shoot", "pcc_prefix"}},
		{name: "chmod/control", mutate: chmod(0), undo: chmod(0o755),
			wantNot: []string{"journal_batch_shoot", "pcc_prefix"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, c, root := auditFixture(t)
			warmBatchSubtree(t, c, root)
			warmBatchSubtree(t, c, k.NewTask(cred.New(1000, 1000, nil, "")))
			a, err := root.Walk("/a", 0)
			if err != nil {
				t.Fatal(err)
			}

			aud := audit.New(k, c)
			if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
				t.Fatalf("audit not clean before injection: %s", r.Summary())
			}

			mutate := func() {
				if err := tc.mutate(root); err != nil {
					t.Fatal(err)
				}
			}
			if tc.inject {
				withoutShootMark(a.D, mutate)
			} else {
				mutate()
			}

			r := aud.RunUntilValid(5)
			if !r.Valid {
				t.Fatalf("no valid audit pass after injection: %s", r.Summary())
			}
			fired := map[string]bool{}
			for _, f := range r.Findings {
				fired[f.Check] = true
			}
			for _, check := range tc.want {
				if !fired[check] {
					t.Errorf("auditor missed the skipped range mark: no %s finding: %s", check, r.Summary())
				}
			}
			for _, check := range tc.wantNot {
				if fired[check] {
					t.Errorf("%s fired on a shootdown that landed its mark: %s", check, r.Summary())
				}
			}

			// Repair: a real shootdown over the same root supersedes the
			// journaled generation and stores its mark; the auditor goes
			// clean.
			if err := tc.undo(root); err != nil {
				t.Fatal(err)
			}
			if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
				t.Fatalf("audit still dirty after repair: %s", r.Summary())
			}
		})
	}
}

// TestRenameDoesNotResurrectPCC: after a batched rename shootdown, a
// republish through the lexicalHash path (dot component) stamps validGen
// without bumping seq; it must not resurrect another credential's
// pre-rename PCC entry.
func TestRenameDoesNotResurrectPCC(t *testing.T) {
	k, _, root := auditFixture(t)
	if err := root.Chmod("/mv", 0o700); err != nil {
		t.Fatal(err)
	}
	user := k.NewTask(cred.New(1000, 1000, nil, ""))
	for i := 0; i < 3; i++ {
		if _, err := user.Stat("/a/b/c/file"); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Rename("/a", "/mv/a"); err != nil {
		t.Fatal(err)
	}
	// Root republishes the moved file via a path with a "." component.
	for i := 0; i < 3; i++ {
		if _, err := root.Stat("/mv/a/b/c/./file"); err != nil {
			t.Fatal(err)
		}
	}
	// /mv is 0700 root-only: user must not be able to resolve this.
	if _, err := user.Stat("/mv/a/b/c/file"); err == nil {
		t.Fatal("user resolved /mv/a/b/c/file despite 0700 /mv")
	}
}

// TestKilledNegativeAnswersNothing is the rename storm's `detached` shape,
// one step at a time: a walker's slow walk ends at the negative a rename
// left behind, the rename back kills that negative, and only then does the
// walker's population run. It must grow no deep negative under the dead
// anchor — and had the insert slipped past the kill (vfs's
// TestNoInsertUnderDeadParent), the child still could not answer from the
// DLHT: the rename bumped the invalidation epoch before the kill, and
// publish re-checks the walk's token under fd.mu.
func TestKilledNegativeAnswersNothing(t *testing.T) {
	k, c, root := auditFixture(t)
	walker := k.NewTask(cred.Root())
	if err := root.Rename("/a", "/mv/a"); err != nil {
		t.Fatal(err)
	}
	rootRef := walker.Root()
	neg := rootRef.D.Child("a")
	if neg == nil || !neg.IsNegative() || neg.IsDead() {
		t.Fatal("rename left no live negative at /a")
	}
	token := c.BeginSlow() // the walker's slow walk of /a/b starts
	if err := root.Rename("/mv/a", "/a"); err != nil {
		t.Fatal(err)
	}
	if !neg.IsDead() {
		t.Fatal("rename back did not kill the residual negative")
	}
	stale := c.Stats().StaleTokens
	c.EndSlowNegative(token, walker, rootRef, "/a/b", &vfs.WalkFailure{
		Errno:   fsapi.ENOENT,
		Anchor:  vfs.PathRef{Mnt: rootRef.Mnt, D: neg},
		Missing: []string{"b"},
	})
	if n := neg.ChildCount(); n != 0 {
		t.Fatalf("dead negative grew %d children", n)
	}
	// The publish-side guard on its own: a live dentry, the stale token.
	live, err := root.Walk("/a", vfs.WalkNoFast)
	if err != nil {
		t.Fatal(err)
	}
	var st sig.State
	if !c.pathState(live, &st, true) {
		t.Fatal("no signature state for /a")
	}
	fd := fast(live.D)
	was := fd.inTable
	c.publish(c.dlhtFor(walker.Namespace()), live, &st, token)
	if fd.inTable != was {
		t.Fatal("publish accepted a pre-rename token")
	}
	if got := c.Stats().StaleTokens - stale; got != 2 {
		t.Fatalf("StaleTokens moved by %d, want 2 (the population and the publish)", got)
	}
	// No stale ENOENT: /a/b exists again and resolves, cold and warm.
	for i := 0; i < 3; i++ {
		if _, err := walker.Stat("/a/b"); err != nil {
			t.Fatalf("stat /a/b after the rename back: %v", err)
		}
	}
}
