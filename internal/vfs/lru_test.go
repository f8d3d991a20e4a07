package vfs

import (
	"fmt"
	"sync"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/slab"
)

// newTestLRU builds a standalone lruList over its own dentry arena.
func newTestLRU() *lruList {
	l := &lruList{}
	l.arena = slab.New[Dentry](slab.NewGate(), slab.Options{})
	return l
}

// lruDentry fabricates a bare dentry with just the fields the LRU reads
// (self, flags, refs, nkids, mu), carved from the list's arena so the hand
// finds it.
func lruDentry(l *lruList, id uint64) *Dentry {
	ref, d := l.arena.Alloc()
	d.reset(id, ref, nil)
	d.pn.Store(&parentName{})
	return d
}

// census counts the slab slots whose tenant is in the LRU — what Len()
// must equal whenever nothing is in flight.
func (l *lruList) census() int {
	n := 0
	l.forEach(func(*Dentry) { n++ })
	return n
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
	if !child.IsDead() || child.Flags()&DInLRU != 0 {
		t.Fatalf("claimed victim's flags %b: want dead and out of the LRU", child.Flags())
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
	if l.Len() != 0 || l.census() != 0 {
		t.Fatalf("after full eviction: Len %d, census %d", l.Len(), l.census())
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

// TestLRUSecondChance states the policy exactly. A dentry enters
// referenced; the hand takes the flag away the first time it passes and
// the dentry the second time, unless a use put the flag back in between:
// used since the hand last passed, a dentry survives this pass and an
// unused one goes first; unused for a full revolution, it goes.
func TestLRUSecondChance(t *testing.T) {
	l := newTestLRU()
	a, b, c := lruDentry(l, 1), lruDentry(l, 2), lruDentry(l, 3)
	l.add(a)
	l.add(b)
	l.add(c)

	// First revolution clears all three flags, the second starts claiming
	// in slab order: one call, two revolutions at most.
	if got := l.victims(1); len(got) != 1 || got[0] != a {
		t.Fatalf("first victim: got %v, want a", got)
	}
	for _, d := range []*Dentry{b, c} {
		if d.Flags()&DReferenced != 0 {
			t.Fatalf("dentry #%d still referenced after the hand passed", d.id)
		}
	}

	// b is used, c is not: the hand reaches b first, and passes.
	b.MarkReferenced()
	if got := l.victims(1); len(got) != 1 || got[0] != c {
		t.Fatalf("second victim: got %v, want c (b was used since the hand passed)", got)
	}
	if b.IsDead() || b.Flags()&DInLRU == 0 {
		t.Fatal("b did not survive the pass it was referenced for")
	}

	// Nobody used b for a whole revolution.
	if got := l.victims(1); len(got) != 1 || got[0] != b {
		t.Fatalf("third victim: got %v, want b", got)
	}
	if got := l.victims(1); len(got) != 0 {
		t.Fatalf("victims from an empty LRU: %v", got)
	}
}

// TestLRUEpochPerEviction: the eviction epoch advances exactly once per
// eviction — both via victims() and via remove() — so §5.1 DIR_COMPLETE
// bookkeeping can detect "a child may have been evicted while I was
// listing this directory". A remove() of an already-gone dentry must not
// advance it, whether remove or the hand took it.
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
	l.remove(got[0]) // the hand already took it: no-op
	if e := l.Epoch(); e != e0+3 {
		t.Fatalf("epoch after removing a claimed victim: %d, want %d", e, e0+3)
	}
	l.remove(ds[7])
	if e := l.Epoch(); e != e0+4 {
		t.Fatalf("epoch after remove: %d, want %d", e, e0+4)
	}
	l.remove(ds[7]) // double remove: no-op
	if e := l.Epoch(); e != e0+4 {
		t.Fatalf("epoch after duplicate remove: %d, want %d", e, e0+4)
	}
	if l.Len() != 4 || l.census() != 4 {
		t.Fatalf("Len %d, census %d, want 4", l.Len(), l.census())
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
	k.ForEachDentry(func(d *Dentry) {
		if d.IsDead() {
			t.Errorf("dead dentry %q still in the LRU", d.Name())
		}
		if p := d.Parent(); p != nil && p.IsDead() {
			t.Errorf("cached dentry %q has dead parent", d.Name())
		}
	})
}

// flatCache returns a kernel caching one directory of n files.
func flatCache(t *testing.T, n int) *Kernel {
	t.Helper()
	k, root := newKernel(t, Config{})
	for i := 0; i < n; i++ {
		if err := root.Create(fmt.Sprintf("/tmp/f%05d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

// TestShrinkAllocsBounded: what a Shrink allocates depends on how many
// dentries it evicts, not on how many are cached — the hand builds no
// candidate list. (The scan-and-sort shrinker allocated a candidate slice
// the size of the cache per call.)
func TestShrinkAllocsBounded(t *testing.T) {
	allocs := func(cached int) float64 {
		k := flatCache(t, cached)
		k.Shrink(64) // size the teardown queue's backing array
		return testing.AllocsPerRun(4, func() {
			if n := k.Shrink(64); n != 64 {
				t.Fatalf("Shrink(64) on %d cached: evicted %d", cached, n)
			}
		})
	}
	small, large := allocs(512), allocs(4096)
	if large > small {
		t.Fatalf("Shrink(64) allocates %.0f on a 4096-dentry cache, %.0f on a 512-dentry one", large, small)
	}
}

// TestStressShrinkCensus races walkers, two concurrent shrinkers and
// create/unlink churn over a cache well above its capacity, then checks
// the one thing a flag-based membership can get wrong: every add, remove
// and claim must have been counted exactly once, so at quiescence Len()
// equals the number of slab slots whose tenant carries DInLRU.
func TestStressShrinkCensus(t *testing.T) {
	k, root := newKernel(t, Config{CacheCapacity: 64, AggressiveNegatives: true})
	for i := 0; i < 128; i++ {
		if err := root.Create(fmt.Sprintf("/tmp/s%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	var wg sync.WaitGroup
	run := func(fn func(task *Task, i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := k.NewTask(cred.Root())
			for i := 0; i < iters; i++ {
				fn(task, i)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		seed := g
		run(func(task *Task, i int) {
			task.Stat(fmt.Sprintf("/tmp/s%03d", (seed*37+i)%128))
			task.Stat("/usr/include/sys/types.h")
			task.Stat("/etc/enoent")
		})
	}
	for g := 0; g < 2; g++ {
		run(func(_ *Task, i int) { k.Shrink(1 + i%16) })
	}
	run(func(task *Task, i int) {
		p := fmt.Sprintf("/tmp/churn%02d", i%8)
		task.Create(p, 0o644)
		task.Unlink(p)
	})
	wg.Wait()

	if got, want := k.lru.Len(), k.lru.census(); got != want {
		t.Fatalf("Len() = %d, census of DInLRU slots = %d", got, want)
	}
	k.DropCaches()
	if got, want := k.lru.Len(), k.lru.census(); got != want {
		t.Fatalf("after DropCaches: Len() = %d, census = %d", got, want)
	}
}
