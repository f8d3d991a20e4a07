package vfs

import (
	"fmt"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/memfs"
	"dircache/internal/slab"
)

// TestTableChainsStayShort: the table is sized by what it holds, so after
// 1<<17 inserts the mean chain is at most one node and none is long — at
// the fixed 1<<18 buckets this replaces the same was true only up to
// 1<<18 names, and a 10M-name cache walked chains of 38.
func TestTableChainsStayShort(t *testing.T) {
	k, root := newKernel(t, Config{})
	ref, err := root.Walk("/etc/passwd", 0)
	if err != nil {
		t.Fatal(err)
	}
	ht := newHashTable(SyncRCU, slab.New[tnode](k.gate, slab.Options{}), k.dentries)
	const n = 1 << 17
	for i := 0; i < n; i++ {
		ht.insert(uint64(i>>6), fmt.Sprintf("f%d", i&63), ref.D)
	}
	st := ht.stats()
	if st.Entries != n || st.Buckets < n || st.Resizes != 7 {
		t.Fatalf("after %d inserts: %+v, want as many entries, at least as many buckets, 7 doublings from %d", n, st, tableMinBuckets)
	}
	empty, one, two, more := ht.chainStats()
	if empty+one+two+more != int(st.Buckets) {
		t.Fatalf("chainStats covers %d buckets of %d", empty+one+two+more, st.Buckets)
	}
	longest, nodes := 0, 0
	bs := *ht.buckets.Load()
	for i := range bs {
		c := 0
		for h := bs[i].head.Load(); h != 0; h = ht.nodes.Get(slab.Handle(h)).next.Load() {
			c++
		}
		nodes += c
		if c > longest {
			longest = c
		}
	}
	if nodes != n || longest > 8 {
		t.Fatalf("chains hold %d nodes of %d, longest %d (want <= 8)", nodes, n, longest)
	}
	for i := 0; i < n; i += 997 {
		if ht.lookup(uint64(i>>6), fmt.Sprintf("f%d", i&63)) != ref.D {
			t.Fatalf("entry %d lost across the doublings", i)
		}
	}
}

// BenchmarkTableLookup is one probe of a table small enough to stay in
// cache (512 names), so what it prices is the probe's instructions: the
// bucket array sits behind one more pointer than when it was a field.
func BenchmarkTableLookup(b *testing.B) {
	k := NewKernel(Config{}, memfs.New(memfs.Options{}))
	root := k.NewTask(cred.Root())
	ref, err := root.Walk("/", 0)
	if err != nil {
		b.Fatal(err)
	}
	ht := newHashTable(SyncRCU, slab.New[tnode](k.gate, slab.Options{}), k.dentries)
	names := make([]string, 512)
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
		ht.insert(7, names[i], ref.D)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ht.lookup(7, names[i&511]) == nil {
			b.Fatal("resident name missed")
		}
	}
}
