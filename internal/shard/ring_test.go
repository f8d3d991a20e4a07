package shard

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("/srv/app%d/lib/pkg%d/file%d.go", i%7, i%53, i))
	}
	return keys
}

// TestRingRemapOnAdd: growing N→N+1 shards remaps close to the ideal
// K/(N+1) fraction of keys — the consistent-hashing property that makes
// shard membership changes cheap.
func TestRingRemapOnAdd(t *testing.T) {
	keys := ringKeys(20000)
	for _, n := range []int{2, 4, 8} {
		before := NewRing(n)
		after := NewRing(n + 1)
		moved := 0
		for _, k := range keys {
			if before.Owner(k) != after.Owner(k) {
				moved++
			}
		}
		ideal := len(keys) / (n + 1)
		// Consistent hashing with 64 vnodes lands near the ideal; allow
		// 2x for vnode placement variance, and require strictly better
		// than the modulo-hash disaster (~n/(n+1) of all keys move).
		if moved > 2*ideal {
			t.Errorf("add shard to %d: %d/%d keys moved, ideal %d", n, moved, len(keys), ideal)
		}
		if moved == 0 {
			t.Errorf("add shard to %d: no keys moved — new shard owns nothing", n)
		}
	}
}

// TestRingRemapOnRemove: removing a shard remaps only the keys it owned.
func TestRingRemapOnRemove(t *testing.T) {
	keys := ringKeys(20000)
	n := 4
	before := NewRing(n)
	after := NewRing(n)
	after.RemoveShard(n - 1)
	for _, k := range keys {
		ob, oa := before.Owner(k), after.Owner(k)
		if ob != n-1 && oa != ob {
			t.Fatalf("key %q moved %d→%d though shard %d was removed", k, ob, oa, n-1)
		}
		if oa == n-1 {
			t.Fatalf("key %q still routed to removed shard", k)
		}
	}
}

// TestRingBalance: ownership spreads over all shards (no shard starves or
// hogs under the 64-vnode placement).
func TestRingBalance(t *testing.T) {
	keys := ringKeys(20000)
	n := 4
	r := NewRing(n)
	counts := make([]int, n)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for id, c := range counts {
		if c < len(keys)/(4*n) || c > len(keys)*3/n {
			t.Errorf("shard %d owns %d of %d keys — badly unbalanced: %v", id, c, len(keys), counts)
		}
	}
}

// TestRingPinNeverSplits: every path at or under a pinned root routes to
// the pin's shard — pinning a rename-heavy subtree keeps its renames
// shard-local.
func TestRingPinNeverSplits(t *testing.T) {
	r := NewRing(4)
	r.Pin("/srv/app3", 2)
	for i := 0; i < 5000; i++ {
		p := fmt.Sprintf("/srv/app3/lib/pkg%d/file%d.go", i%53, i)
		if got := r.Owner(p); got != 2 {
			t.Fatalf("pinned subtree split: %q routed to %d", p, got)
		}
		if got := r.OwnerDir(p); got != 2 {
			t.Fatalf("pinned subtree split (dir key): %q routed to %d", p, got)
		}
	}
	if got := r.Owner("/srv/app3"); got != 2 {
		t.Fatalf("pinned root itself routed to %d", got)
	}
	// Nested pin wins by longest root.
	r.Pin("/srv/app3/hot", 0)
	if got := r.Owner("/srv/app3/hot/x"); got != 0 {
		t.Fatalf("nested pin lost to outer pin: routed to %d", got)
	}
	if got := r.Owner("/srv/app3/cold/x"); got != 2 {
		t.Fatalf("outer pin lost outside nested root: routed to %d", got)
	}
}

// TestRingColocation: a directory's listing and its children's bindings
// land on one shard (OwnerDir(p) == Owner(p/child)) — the invariant the
// staleness analysis relies on.
func TestRingColocation(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 2000; i++ {
		dir := fmt.Sprintf("/srv/app%d/lib/pkg%d", i%7, i)
		if r.OwnerDir(dir) != r.Owner(dir+"/child.go") {
			t.Fatalf("listing of %q and its child bindings split across shards", dir)
		}
	}
}

// TestRingDeterminism: two independently built rings agree — routing is a
// pure function of membership, pins, and the fixed RouteSeed.
func TestRingDeterminism(t *testing.T) {
	a, b := NewRing(5), NewRing(5)
	a.Pin("/srv/app1", 3)
	b.Pin("/srv/app1", 3)
	for _, k := range ringKeys(1000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings disagree on %q", k)
		}
	}
}
