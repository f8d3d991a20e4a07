package vfs

import (
	"fmt"
	"math/rand"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/memfs"
	"dircache/internal/sig"
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
	ht := newHashTable(SyncRCU, k)
	const n = 1 << 17
	for i := 0; i < n; i++ {
		ht.insert(uint64(i>>6), fmt.Sprintf("f%d", i&63), ref.D)
	}
	st := ht.Stats()
	if st.Entries != n || st.Buckets < n || st.Resizes != 7 {
		t.Fatalf("after %d inserts: %+v, want as many entries, at least as many buckets, 7 doublings from %d", n, st, tableMinBuckets)
	}
	if sh := ht.Shape(); sh.Buckets != int(st.Buckets) || sh.Entries != n || sh.Dead != 0 || sh.MaxChain > 8 {
		t.Fatalf("Shape covers %d buckets of %d, %d live and %d dead nodes of %d, longest chain %d (want <= 8)", sh.Buckets, st.Buckets, sh.Entries, sh.Dead, n, sh.MaxChain)
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
	ht := newHashTable(SyncRCU, k)
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

// TestTableAgainstMap drives both instantiations of the shared table and a
// map through the same random inserts, removes, lazy kills and lookups —
// enough live entries to take the array through four doublings, and for
// the DLHT's (keyed by signature, filed under a 16-bit index that is not a
// function of the key) past a ceiling lowered here to 1<<12, so 8192
// entries sit in 4096 buckets — and wants the table to answer like the map
// at every step. A killed entry's node stays chained, as lazy teardown
// leaves it, until an insert into its bucket sweeps it; re-inserting the
// key before that must shadow it.
func TestTableAgainstMap(t *testing.T) {
	t.Run("name", func(t *testing.T) {
		k, _ := newKernel(t, Config{})
		st := tableAgainstMap(t, k, newHashTable(SyncRCU, k).Table, func(i int) (uint64, nameKey) {
			key := nameKey{uint64(i >> 5), fmt.Sprintf("f%d", i&31)}
			return hashKey(key.parentID, key.name), key
		})
		if st.Buckets < 1<<13 || st.Resizes < 3 {
			t.Fatalf("uncapped table ended at %+v, want >= 8192 buckets", st)
		}
	})
	t.Run("sig", func(t *testing.T) {
		k, _ := newKernel(t, Config{})
		const ceiling = 1 << 12
		nodes := slab.New[TableNode[sig.Signature]](k.gate, slab.Options{})
		st := tableAgainstMap(t, k, NewTable(k, nodes, ceiling), func(i int) (uint64, sig.Signature) {
			// Sixteen keys per index: they share a bucket at every table size.
			return uint64(uint16(i >> 4 * 37)), sig.Signature{W: [4]uint64{uint64(i), 1, 2, 3}}
		})
		if st.Buckets != ceiling || st.Resizes != 2 {
			t.Fatalf("capped table ended at %+v, want %d buckets after 2 doublings", st, ceiling)
		}
	})
}

func tableAgainstMap[K comparable](t *testing.T, k *Kernel, tab *Table[K], keyOf func(i int) (uint64, K)) TableStats {
	const (
		keys   = 1 << 14
		target = 1 << 13 // live entries to reach: 1024 buckets double to hold them
	)
	root := k.initNS.root.sb.root
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	rng := rand.New(rand.NewSource(1))
	ref := map[K]*Dentry{}
	killed := 0
	check := func(i int) {
		t.Helper()
		hash, key := keyOf(i)
		if got := tab.Lookup(hash, key); got != ref[key] {
			t.Fatalf("lookup %v: table has %p, map has %p (%d live)", key, got, ref[key], len(ref))
		}
		if tab.Lookup(hash^(1<<20), key) != nil { // same bucket, another hash
			t.Fatalf("lookup %v under a hash it was not filed under hit", key)
		}
	}
	for len(ref) < target {
		i := rng.Intn(keys)
		hash, key := keyOf(i)
		d, held := ref[key]
		switch op := rng.Intn(8); {
		case !held:
			d = k.newDentry(root.sb, root, "x")
			tab.Insert(hash, key, d)
			ref[key] = d
		case op == 0:
			tab.Remove(hash, key, d)
			delete(ref, key)
		case op == 1: // lazy teardown: the dentry dies, its node stays
			d.setFlags(DDead)
			delete(ref, key)
			killed++
		case op == 2: // not this key's dentry: nothing to remove
			tab.Remove(hash, key, root)
		}
		check(i)
		check(rng.Intn(keys))
	}
	for i := 0; i < keys; i++ {
		check(i)
	}
	st, sh := tab.Stats(), tab.Shape()
	if sh.Entries != len(ref) || st.Entries != int64(sh.Entries+sh.Dead) || sh.Dead >= killed || killed == 0 {
		t.Fatalf("%d live in the map, %d killed; table counts %d entries, scan sees %d live and %d dead (inserts sweep: fewer dead than killed)",
			len(ref), killed, st.Entries, sh.Entries, sh.Dead)
	}
	return st
}
