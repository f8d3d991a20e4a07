package core

import (
	"fmt"
	"strings"
	"testing"

	"dircache/internal/audit"
	"dircache/internal/vfs"
)

// TestAuditCatchesPrematureFree injects the slab bug class slab_liveness
// exists for: a live dentry's slot is retired and recycled onto the
// free-list while its parent's child map and the hash chains still
// reference it and the LRU still counts it — the moral equivalent of a
// kernel use-after-free. The auditor must flag the dangling child-map
// entry and the miscount; discarding the cached view of the poisoned path
// repairs both.
func TestAuditCatchesPrematureFree(t *testing.T) {
	k, c, root := auditFixture(t)
	warmBatchSubtree(t, c, root)

	aud := audit.New(k, c)
	if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit not clean before injection: %s", r.Summary())
	}

	ref, err := root.Walk("/a/b/c/file", 0)
	if err != nil {
		t.Fatal(err)
	}
	k.InjectPrematureFree(ref.D)

	r := aud.RunUntilValid(5)
	if !r.Valid {
		t.Fatalf("no valid audit pass after injection: %s", r.Summary())
	}
	caught := map[string]int{}
	for _, f := range r.Findings {
		caught[f.Check]++
	}
	if caught["slab_liveness"] == 0 {
		t.Fatalf("auditor missed the prematurely freed slot: %s", r.Summary())
	}
	if caught["lru_census"] == 0 {
		t.Fatalf("auditor missed the dentry the LRU counts but the slab no longer holds: %s", r.Summary())
	}
	if r.Checked["slab_liveness"] == 0 {
		t.Fatal("slab_liveness examined nothing")
	}

	// Repair: the fail-closed discard a peer's invalidation takes descends
	// by child map, so it still reaches the poisoned dentry — detaching it
	// from its parent and taking it out of the LRU's count by its own flag.
	// With the dangling child gone the directories above it are leaves
	// again, and dropping caches empties the rest.
	if n := k.InvalidateCachedPath("/a/b/c/file", "unlink"); n != 1 {
		t.Fatalf("InvalidateCachedPath tore down %d dentries, want 1", n)
	}
	k.DropCaches()
	if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit still dirty after repair: %s", r.Summary())
	}
	if _, err := root.Stat("/a/b/c/file"); err != nil {
		t.Fatalf("stat after repair: %v", err)
	}
}

// evictKeepsEntry is Core with OnEvict's unlink taken out: the kill still
// bumps the dentry's seq, and leaves its DLHT entry linked.
type evictKeepsEntry struct{ *Core }

func (e evictKeepsEntry) OnEvict(d *vfs.Dentry) { fast(d).Seq.Add(1) }

// TestAuditCatchesLinkedRetire injects a kill that skips the DLHT unlink:
// the table's chains run through the dentries, so the sweeper must not
// retire a slot a chain still reaches — recycled, it would splice its new
// tenant into a stranger's chain. The slot stays, dead and chained, where
// lookups skip it, and the auditor's chain pass reports it.
func TestAuditCatchesLinkedRetire(t *testing.T) {
	k, c, root := auditFixture(t)
	for i := 0; i < 3; i++ {
		if _, err := root.Stat("/a/b/c/file"); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := root.Walk("/a/b/c/file", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fast(ref.D).Link.InChain() {
		t.Fatal("/a/b/c/file is not in the DLHT: the test exercises nothing")
	}
	aud := audit.New(k, c)
	if r := aud.RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit not clean before injection: %s", r.Summary())
	}

	k.SetHooks(evictKeepsEntry{c})
	k.DropCaches()
	if k.DentryFromRef(ref.D.SelfRef()) != ref.D || !ref.D.IsDead() {
		t.Fatal("the sweeper retired a slot still linked into a DLHT")
	}
	r := aud.RunUntilValid(5)
	if !r.Valid {
		t.Fatalf("no valid audit pass after injection: %s", r.Summary())
	}
	caught := false
	for _, f := range r.Findings {
		caught = caught || f.Check == "slab_liveness" && strings.Contains(f.Detail, fmt.Sprintf("dentry #%d ", ref.D.ID()))
	}
	if !caught {
		t.Fatalf("auditor did not report the dead slot still in a DLHT chain: %s", r.Summary())
	}
	if _, err := root.Stat("/a/b/c/file"); err != nil {
		t.Fatalf("stat past the dead entry: %v", err)
	}
}
