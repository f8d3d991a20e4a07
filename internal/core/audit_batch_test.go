package core

import (
	"errors"
	"testing"

	"dircache/internal/audit"
	"dircache/internal/cred"
	"dircache/internal/fsapi"
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

// TestAuditCatchesMissedBatchMark injects the bulk-shootdown bug the
// journal_batch_shoot cross-check exists for: the mutation journals a
// batch_shoot event but skips storing the range mark, so the subtree's
// published entries would keep looking fresh forever.
func TestAuditCatchesMissedBatchMark(t *testing.T) {
	k, c, root := auditFixture(t)
	warmBatchSubtree(t, c, root)

	aud := audit.New(k, c)
	if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit not clean before injection: %s", r.Summary())
	}

	c.testSkipBatchMark = true
	if err := root.Rename("/a", "/mv/a"); err != nil {
		t.Fatal(err)
	}
	c.testSkipBatchMark = false

	r := aud.RunUntilValid(5)
	if !r.Valid {
		t.Fatalf("no valid audit pass after injection: %s", r.Summary())
	}
	missed := 0
	for _, f := range r.Findings {
		if f.Check == "journal_batch_shoot" {
			missed++
		}
	}
	if missed == 0 {
		t.Fatalf("auditor missed the skipped batch mark: %s", r.Summary())
	}

	// Repair: a real batch shootdown over the same root supersedes the
	// journaled generation and stores its mark; the auditor goes clean.
	if err := root.Rename("/mv/a", "/a"); err != nil {
		t.Fatal(err)
	}
	if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit still dirty after repair: %s", r.Summary())
	}
	_ = k
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
	st, ok := c.ensureState(live)
	if !ok {
		t.Fatal("no signature state for /a")
	}
	fd := fast(live.D)
	was := fd.inTable
	c.publish(c.dlhtFor(walker.Namespace()), live, st, token)
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
