package vfs

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/memfs"
	"dircache/internal/sig"
	"dircache/internal/slab"
)

// testKey signs the DLHT-kind tables' test entries.
var testKey = sig.NewKey(1)

// testDentry allocates a dentry under k's root that no structure holds.
func testDentry(k *Kernel) *Dentry {
	root := k.initNS.root.sb.root
	return k.newDentry(root.sb, root, "x")
}

// tagged gives d a tag unique to i in tab's kind and returns it: for the
// dentry table the name "n<i>" under d's parent and its hash in hkey, for
// a DLHT the lane 0 of a stored state, with InTable naming tab as publish
// has it.
func tagged(tab *Table, d *Dentry, i int) uint64 {
	if tab.dlht {
		st := testKey.NewState().AppendString(strconv.Itoa(i))
		d.fast.State.Store(&st)
		d.fast.InTable.Store(tab)
		return st.Lane0()
	}
	parent := d.Parent()
	d.pn.Store(&parentName{parent: parent, name: "n" + strconv.Itoa(i)})
	tag := hashKey(parent.id, d.Name())
	d.hkey.Store(tag)
	return tag
}

// TestTableChainsStayShort: the table is sized by what it holds, so after
// 1<<17 inserts the mean chain is at most one entry and none is long — at
// the fixed 1<<18 buckets this replaces the same was true only up to
// 1<<18 names, and a 10M-name cache walked chains of 38.
func TestTableChainsStayShort(t *testing.T) {
	k, _ := newKernel(t, Config{})
	root := k.initNS.root.sb.root
	ht := newHashTable(SyncRCU, k)
	const n = 1 << 17
	parents := make([]*Dentry, n>>6)
	for i := range parents {
		parents[i] = k.newDentry(root.sb, root, fmt.Sprintf("p%d", i))
	}
	ds := make([]*Dentry, n)
	for i := range ds {
		ds[i] = k.newDentry(root.sb, parents[i>>6], fmt.Sprintf("f%d", i&63))
		ht.insert(ds[i])
	}
	st := ht.Stats()
	if st.Entries != n || st.Buckets < n || st.Resizes != 7 {
		t.Fatalf("after %d inserts: %+v, want as many entries, at least as many buckets, 7 doublings from %d", n, st, tableMinBuckets)
	}
	if sh := ht.Shape(); sh.Buckets != int(st.Buckets) || sh.Entries != n || sh.Dead != 0 || sh.MaxChain > 8 {
		t.Fatalf("Shape covers %d buckets of %d, %d live and %d dead entries of %d, longest chain %d (want <= 8)", sh.Buckets, st.Buckets, sh.Entries, sh.Dead, n, sh.MaxChain)
	}
	for i := 0; i < n; i += 997 {
		if ht.lookup(parents[i>>6], fmt.Sprintf("f%d", i&63)) != ds[i] {
			t.Fatalf("entry %d lost across the doublings", i)
		}
	}
}

// TestTableGrowKeepsOldChains: a doubling rethreads every entry through
// the next words of the other parity and leaves the old array's chains as
// they were, so a reader still on the old array finds everything it held.
// A table full to its thousand buckets, one entry each, has every other
// entry die in place, as teardown leaves them until the sweeper unlinks
// them; one more insert doubles it. The dead entries stay chained and
// counted until a Remove takes them out.
func TestTableGrowKeepsOldChains(t *testing.T) {
	k, _ := newKernel(t, Config{})
	tab := newHashTable(SyncRCU, k).Table
	old := tab.buckets.Load()
	ds := make([]*Dentry, tableMinBuckets+1)
	tags := make([]uint64, len(ds))
	for i := range ds {
		ds[i] = testDentry(k)
		tags[i] = tagged(tab, ds[i], i)
		tab.Insert(uint64(i), ds[i])
		if i%2 == 0 && i < tableMinBuckets {
			ds[i].setFlags(DDead)
		}
	}
	st, sh := tab.Stats(), tab.Shape()
	if st.Resizes != 1 || st.Entries != int64(len(ds)) || sh.Dead != tableMinBuckets/2 || sh.Entries != len(ds)-tableMinBuckets/2 {
		t.Fatalf("after the doubling: %+v, scan sees %d live and %d dead; want 1 doubling, %d entries, %d dead",
			st, sh.Entries, sh.Dead, len(ds), tableMinBuckets/2)
	}
	for i, d := range ds {
		got := tab.Lookup(uint64(i), tags[i])
		if i < tableMinBuckets {
			if was := tab.probe(old, uint64(i), old.b[i].head.Load(), tags[i]); was != got {
				t.Fatalf("entry %d: the old array's chain finds %p, the new one %p", i, was, got)
			}
		}
		if d.IsDead() && got != nil || !d.IsDead() && got != d {
			t.Fatalf("entry %d (dead %v) looked up as %p", i, d.IsDead(), got)
		}
	}
	for i := 0; i < tableMinBuckets; i += 2 {
		tab.Remove(ds[i])
	}
	if st, sh := tab.Stats(), tab.Shape(); st.Entries != int64(sh.Entries) || sh.Dead != 0 {
		t.Fatalf("after removing the dead: %+v, scan sees %d live and %d dead", st, sh.Entries, sh.Dead)
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
		ht.insert(k.newDentry(ref.D.sb, ref.D, names[i]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ht.lookup(ref.D, names[i&511]) == nil {
			b.Fatal("resident name missed")
		}
	}
}

// TestTableAgainstMap drives both kinds of the shared table and a map
// through the same random inserts, removes, kills and lookups — enough
// live entries to take the array through doublings, and for the DLHT's
// (filed under a 16-bit index that is not a function of its tag) past a
// ceiling lowered here to 1<<12, so 8192 entries sit in 4096 buckets —
// and wants the table to answer like the map at every step. A killed
// entry stays chained, as teardown leaves it, until the sweeper's Remove;
// a fresh dentry filed under the same key before that must be found.
func TestTableAgainstMap(t *testing.T) {
	t.Run("name", func(t *testing.T) {
		k, _ := newKernel(t, Config{})
		st := tableAgainstMap(t, k, newHashTable(SyncRCU, k).Table, func(i int) uint64 {
			return hashKey(uint64(i>>5), fmt.Sprintf("f%d", i&31))
		})
		if st.Buckets < 1<<13 || st.Resizes < 3 {
			t.Fatalf("uncapped table ended at %+v, want >= 8192 buckets", st)
		}
	})
	t.Run("sig", func(t *testing.T) {
		k, _ := newKernel(t, Config{})
		const ceiling = 1 << 12
		st := tableAgainstMap(t, k, newTable(k, true, ceiling), func(i int) uint64 {
			// Sixteen keys per index: they share a bucket at every table size.
			return uint64(uint16(i >> 4 * 37))
		})
		if st.Buckets != ceiling || st.Resizes != 2 {
			t.Fatalf("capped table ended at %+v, want %d buckets after 2 doublings", st, ceiling)
		}
	})
}

func tableAgainstMap(t *testing.T, k *Kernel, tab *Table, hashOf func(i int) uint64) TableStats {
	const (
		keys   = 1 << 14
		target = 1 << 13 // live entries to reach: 1024 buckets double to hold them
	)
	rng := rand.New(rand.NewSource(1))
	ref := map[int]*Dentry{}
	tags := map[int]uint64{}
	var dead []*Dentry
	check := func(i int) {
		t.Helper()
		e := k.gate.Enter()
		defer k.gate.Exit(e)
		tag, ok := tags[i]
		if !ok {
			return
		}
		if got := tab.Lookup(hashOf(i), tag); got != ref[i] {
			t.Fatalf("lookup %d: table has %p, map has %p (%d live)", i, got, ref[i], len(ref))
		}
		if tab.Lookup(hashOf(i), tag^2) != nil { // same bucket, another tag
			t.Fatalf("lookup %d under a tag it was not filed under hit", i)
		}
	}
	for len(ref) < target {
		i := rng.Intn(keys)
		d, held := ref[i]
		switch op := rng.Intn(8); {
		case !held:
			d = testDentry(k)
			tags[i] = tagged(tab, d, i)
			if !tab.Insert(hashOf(i), d) {
				t.Fatalf("insert of live entry %d refused", i)
			}
			ref[i] = d
		case op == 0:
			tab.Remove(d)
			delete(ref, i)
		case op == 1: // teardown: the dentry dies, and stays chained
			d.setFlags(DDead)
			delete(ref, i)
			dead = append(dead, d)
		case op == 2 && len(dead) > 0: // the sweeper unlinks one
			tab.Remove(dead[0])
			dead = dead[1:]
		}
		check(i)
		check(rng.Intn(keys))
	}
	for i := 0; i < keys; i++ {
		check(i)
	}
	st, sh := tab.Stats(), tab.Shape()
	if sh.Entries != len(ref) || sh.Dead != len(dead) || st.Entries != int64(sh.Entries+sh.Dead) {
		t.Fatalf("%d live and %d dead in the model; table counts %d entries, scan sees %d live and %d dead",
			len(ref), len(dead), st.Entries, sh.Entries, sh.Dead)
	}
	return st
}

// TestTableProbeDiversion parks a probe on an entry in the middle of a
// chain — it has read the entry and not yet its next word, which the
// probe seam resumes from — and changes the table under it: a doubling, a
// re-publish of the entry it stands on into another bucket and into its
// own, the removal of its neighbour, and, for a DLHT, a move of its entry
// into another namespace's table whose chain holds an entry with the
// probed tag, all inside the probe's epoch section. Resumed, the probe
// must find the chain's last entry — a relink into another bucket sends it
// back to its bucket's head — or, only where its entry moved into another
// table, nothing: never another entry, and within probeHops, which bounds
// its loop. Five entries share bucket 5 of the first array; the doubling
// files the odd ones under 5+1024.
func TestTableProbeDiversion(t *testing.T) {
	for _, dlht := range []bool{false, true} {
		for _, change := range []string{"double", "republish-away", "republish-home", "remove-next", "double-then-relink", "other-table"} {
			if change == "other-table" && !dlht {
				continue // a kernel has one (parent, name) table
			}
			t.Run(fmt.Sprintf("dlht=%v/%s", dlht, change), func(t *testing.T) {
				k, _ := newKernel(t, Config{})
				e := k.gate.Enter()
				defer k.gate.Exit(e)
				tab := newTable(k, dlht, linked)
				ds := make([]*Dentry, 5)
				tags := make([]uint64, 5)
				for i := range ds {
					ds[i] = testDentry(k)
					tags[i] = tagged(tab, ds[i], i)
					tab.Insert(uint64(5+i*tableMinBuckets), ds[i]) // chain: 4 3 2 1 0
				}
				a := tab.buckets.Load()
				parked := tab.link(ds[3])
				republish := func(hash uint64) {
					tab.Remove(ds[3])
					if !tab.Insert(hash, ds[3]) {
						t.Fatal("re-publish refused")
					}
				}
				wantNil := false
				switch change {
				case "double":
					tab.double(a)
				case "republish-away":
					other := testDentry(k)
					tagged(tab, other, 9)
					tab.Insert(7, other)
					republish(7)
				case "republish-home":
					republish(5 + 3*tableMinBuckets)
				case "remove-next":
					tab.Remove(ds[2])
					ds[2].setFlags(DDead)
					k.retireLater(ds[2])
					k.ReclaimAll() // the probe's section keeps the slot from recycling
				case "double-then-relink":
					tab.double(a)
					republish(7)
					tab.Remove(ds[2])
				case "other-table":
					other := newTable(k, true, linked)
					stranger := testDentry(k)
					tagged(other, stranger, 0)
					other.Insert(5, stranger)
					tab.Remove(ds[3])
					tagged(other, ds[3], 3)
					other.Insert(5, ds[3]) // its next word now leads to stranger
					wantNil = true
				}
				got := tab.probe(a, 5, parked.next[a.parity].Load(), tags[0])
				if got != ds[0] && (got != nil || !wantNil) {
					t.Fatalf("resumed probe found %p; want the chain's last entry %p", got, ds[0])
				}
				if tab.Lookup(uint64(5), tags[0]) != ds[0] {
					t.Fatal("a fresh probe misses the chain's last entry")
				}
			})
		}
	}
}

// FuzzTable drives one table of either kind through inserts, removes,
// kills, re-publishes under new keys and forced doublings against a map
// model, and after every step wants every chain to end within as many hops
// as there are dentries (no cycle), every dentry a chain reaches to be
// linked, filed under that bucket and in the model, every linked dentry
// reached, the entry count to be what the chains hold, and every live
// model entry to be found under its key and no dead one.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba, 0xcb})
	f.Add([]byte("relink the entry a probe stands on, then double twice"))
	k := NewKernel(Config{}, memfs.New(memfs.Options{}))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		tab := newTable(k, len(ops) > 0 && ops[0]&1 != 0, linked)
		const pool = 24
		type entry struct {
			d         *Dentry
			hash, tag uint64
			in, dead  bool
		}
		es := make([]entry, pool)
		gen := 0
		fresh := func(i int) {
			es[i] = entry{d: testDentry(k)}
		}
		for i := range es {
			fresh(i)
		}
		file := func(i int, hash uint64) {
			gen++
			es[i].hash, es[i].tag = hash, tagged(tab, es[i].d, gen)
			if tab.Insert(hash, es[i].d) != !es[i].dead {
				t.Fatalf("insert of entry %d (dead %v) answered wrong", i, es[i].dead)
			}
			es[i].in = !es[i].dead
		}
		for p := 0; p+2 < len(ops); p += 3 {
			i, hash := int(ops[p]>>3)%pool, uint64(ops[p+1])<<8|uint64(ops[p+2])
			switch e := &es[i]; ops[p] & 7 {
			case 0, 1:
				if !e.in {
					file(i, hash)
				}
			case 2:
				tab.Remove(e.d)
				e.in = false
				if e.dead {
					fresh(i)
				}
			case 3: // a kill; a DLHT's entry leaves with it, as OnEvict takes it
				if tab.dlht {
					tab.Remove(e.d)
					e.in = false
				}
				e.d.setFlags(DDead)
				e.dead = true
			case 4, 5: // re-publish under a new key
				if e.in {
					tab.Remove(e.d)
					file(i, hash)
				}
			case 6:
				if a := tab.buckets.Load(); len(a.b) < 1<<12 {
					tab.double(a)
				}
			}
			checkTable(t, tab, func(yield func(d *Dentry, in, dead bool, hash, tag uint64)) {
				for _, e := range es {
					yield(e.d, e.in, e.dead, e.hash, e.tag)
				}
			}, pool)
		}
	})
}

// checkTable is FuzzTable's after-every-step check of tab against the
// entries each yields.
func checkTable(t *testing.T, tab *Table, model func(func(d *Dentry, in, dead bool, hash, tag uint64)), pool int) {
	t.Helper()
	inModel := map[*Dentry]bool{}
	linkedN := 0
	model(func(d *Dentry, in, dead bool, hash, tag uint64) {
		inModel[d] = in
		if in {
			linkedN++
			if got := tab.Lookup(hash, tag); (got == d) == dead {
				t.Fatalf("entry #%d (dead %v) looked up as %p", d.ID(), dead, got)
			}
		}
	})
	a := tab.buckets.Load()
	reached := 0
	for i := range a.b {
		hops := 0
		for h := a.b[i].head.Load(); h != 0; h = tab.link(tab.dentries.Get(slab.Handle(h))).next[a.parity].Load() {
			d := tab.dentries.Get(slab.Handle(h))
			if hops++; hops > pool {
				t.Fatalf("bucket %d: chain longer than the %d dentries there are (a cycle)", i, pool)
			}
			if why := tab.misfiled(len(a.b), i, d); why != "" || !inModel[d] {
				t.Fatalf("bucket %d reaches dentry #%d: %q, in the model %v", i, d.ID(), why, inModel[d])
			}
			reached++
		}
	}
	if reached != linkedN || tab.Stats().Entries != int64(linkedN) {
		t.Fatalf("chains reach %d entries, the table counts %d, the model links %d", reached, tab.Stats().Entries, linkedN)
	}
}
