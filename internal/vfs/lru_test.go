package vfs

import (
	"fmt"
	"testing"

	"dircache/internal/slab"
)

// newTestLRU builds a standalone lruList over its own dentry arena.
func newTestLRU() *lruList {
	l := &lruList{}
	l.arena = slab.New[Dentry](slab.NewGate(), slab.Options{})
	return l
}

// lruDentry fabricates a bare dentry with just the fields the LRU reads
// (id, self, refs, nkids, lastUsed), carved from the list's arena so its
// handle resolves.
func lruDentry(l *lruList, id uint64) *Dentry {
	ref, d := l.arena.Alloc()
	d.reset(id, ref, nil)
	d.pn.Store(&parentName{})
	return d
}

// TestLRUVictimsLeafOnly: eviction is bottom-up — a dentry with cached
// children is never selected, and becomes evictable once its children are
// gone (nkids drops to zero).
func TestLRUVictimsLeafOnly(t *testing.T) {
	l := newTestLRU()
	parent := lruDentry(l, 1)
	child := lruDentry(l, 2)
	parent.nkids.Store(1)
	l.add(parent)
	l.add(child)

	got := l.victims(10)
	if len(got) != 1 || got[0] != child {
		t.Fatalf("victims with live child: got %d victims, want only the leaf", len(got))
	}
	if l.Len() != 1 {
		t.Fatalf("count after leaf eviction: %d", l.Len())
	}

	// Child gone: the parent is a leaf now and falls too.
	parent.nkids.Store(0)
	got = l.victims(10)
	if len(got) != 1 || got[0] != parent {
		t.Fatalf("victims after child evicted: %v", got)
	}
	if l.Len() != 0 {
		t.Fatalf("count after full eviction: %d", l.Len())
	}
}

// TestLRUVictimsPinned: referenced dentries (open files, cwd/root refs)
// survive arbitrarily aggressive shrinking.
func TestLRUVictimsPinned(t *testing.T) {
	l := newTestLRU()
	pinned := lruDentry(l, 1)
	pinned.refs.Store(1)
	loose := lruDentry(l, 2)
	l.add(pinned)
	l.add(loose)

	got := l.victims(10)
	if len(got) != 1 || got[0] != loose {
		t.Fatalf("pinned dentry evicted: %v", got)
	}
	pinned.refs.Store(0)
	if got = l.victims(10); len(got) != 1 || got[0] != pinned {
		t.Fatalf("unpinned dentry not evicted: %v", got)
	}
}

// TestLRUVictimsColdestFirst: victims leave in generation-stamp order, and
// touch refreshes a dentry's stamp so recently hit entries outlive stale
// ones even though hits never reorder any list.
func TestLRUVictimsColdestFirst(t *testing.T) {
	l := newTestLRU()
	a, b, c := lruDentry(l, 1), lruDentry(l, 2), lruDentry(l, 3)
	l.add(a) // stamp 1
	l.add(b) // stamp 2
	l.add(c) // stamp 3
	l.touch(a)

	got := l.victims(1)
	if len(got) != 1 || got[0] != b {
		t.Fatalf("coldest victim: got %v, want b (a was touched)", got)
	}
	got = l.victims(2)
	if len(got) != 2 || got[0] != a || got[1] != c {
		// a (stamp 3) ties with c (stamp 3); ties break by id.
		t.Fatalf("remaining victims: %v", got)
	}
}

// TestLRUEpochPerEviction: the eviction epoch advances exactly once per
// eviction — both via victims() and via remove() — so §5.1 DIR_COMPLETE
// bookkeeping can detect "a child may have been evicted while I was
// listing this directory". A remove() of an already-gone dentry must not
// advance it.
func TestLRUEpochPerEviction(t *testing.T) {
	l := newTestLRU()
	var ds []*Dentry
	for i := 0; i < 8; i++ {
		d := lruDentry(l, uint64(i+1))
		ds = append(ds, d)
		l.add(d)
	}
	e0 := l.Epoch()
	got := l.victims(3)
	if len(got) != 3 {
		t.Fatalf("victims: %d", len(got))
	}
	if e := l.Epoch(); e != e0+3 {
		t.Fatalf("epoch after 3 evictions: %d -> %d", e0, e)
	}
	l.remove(ds[7])
	if e := l.Epoch(); e != e0+4 {
		t.Fatalf("epoch after remove: %d, want %d", e, e0+4)
	}
	l.remove(ds[7]) // double remove: no-op
	if e := l.Epoch(); e != e0+4 {
		t.Fatalf("epoch after duplicate remove: %d, want %d", e, e0+4)
	}
}

// TestLRUKernelEpochMatchesEvictions ties the epoch invariant to the real
// kernel shrinker: EvictionEpoch advances by exactly the number of
// dentries Shrink reports.
func TestLRUKernelEpochMatchesEvictions(t *testing.T) {
	k, root := newKernel(t, Config{})
	for i := 0; i < 32; i++ {
		if err := root.Create(fmt.Sprintf("/tmp/e%02d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e0 := k.EvictionEpoch()
	n := k.Shrink(10)
	if n == 0 {
		t.Fatal("nothing evicted")
	}
	if e := k.EvictionEpoch(); e != e0+uint64(n) {
		t.Fatalf("eviction epoch advanced %d for %d evictions", e-e0, n)
	}
	// Bottom-up invariant at the kernel level: every survivor's parent is
	// still cached (not dead).
	k.DropCaches()
	for i := range k.lru.shards {
		sh := &k.lru.shards[i]
		sh.mu.Lock()
		for h, g := range sh.entries {
			d := k.dentries.Resolve(slab.Ref{H: h, G: g})
			if d == nil {
				sh.mu.Unlock()
				t.Fatalf("LRU entry %d does not resolve", h)
			}
			if p := d.Parent(); p != nil && p.IsDead() {
				sh.mu.Unlock()
				t.Fatalf("cached dentry %q has dead parent", d.Name())
			}
		}
		sh.mu.Unlock()
	}
}
