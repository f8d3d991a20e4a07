package core

import (
	"testing"

	"dircache/internal/audit"
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
