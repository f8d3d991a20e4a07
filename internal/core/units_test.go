package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/sig"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

func TestPCCBasics(t *testing.T) {
	p := newPCC(1<<10, 1<<10)
	if p.Entries() <= 0 {
		t.Fatal("no capacity")
	}
	if p.Lookup(42, 7) {
		t.Fatal("empty PCC hit")
	}
	p.Insert(42, 7)
	if !p.Lookup(42, 7) {
		t.Fatal("inserted entry missing")
	}
	// Stale seq must miss.
	if p.Lookup(42, 8) {
		t.Fatal("stale seq hit")
	}
	// Re-insert with new seq replaces (same dentry occupies one way).
	p.Insert(42, 8)
	if !p.Lookup(42, 8) || p.Lookup(42, 7) {
		t.Fatal("seq replacement broken")
	}
}

func TestPCCEvictionKeepsRecent(t *testing.T) {
	p := newPCC(64, 64) // 8 entries, 2 sets
	// Insert far more than capacity; the last-inserted must survive.
	for i := uint64(1); i <= 100; i++ {
		p.Insert(i, 1)
	}
	if !p.Lookup(100, 1) {
		t.Fatal("most recent insertion evicted")
	}
	hits := 0
	for i := uint64(1); i <= 100; i++ {
		if p.Lookup(i, 1) {
			hits++
		}
	}
	if hits == 0 || hits > p.Entries() {
		t.Fatalf("implausible survivor count %d (capacity %d)", hits, p.Entries())
	}
}

func TestPCCInvalidate(t *testing.T) {
	p := newPCC(512, 512)
	for i := uint64(1); i < 20; i++ {
		p.Insert(i, 0)
	}
	p.Invalidate()
	for i := uint64(1); i < 20; i++ {
		if p.Lookup(i, 0) {
			t.Fatal("entry survived Invalidate")
		}
	}
}

func TestPCCProperty(t *testing.T) {
	// Insert-then-lookup with matching seq always hits immediately after
	// insertion (no intervening inserts).
	p := newPCC(4<<10, 4<<10)
	f := func(id, seq uint64) bool {
		p.Insert(id, seq)
		return p.Lookup(id, seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPCCConcurrent(t *testing.T) {
	p := newPCC(64<<10, 64<<10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 32
			for i := uint64(0); i < 5000; i++ {
				p.Insert(base+i, i)
				p.Lookup(base+i, i)
				p.Lookup(base+i/2, i/2)
			}
		}(w)
	}
	wg.Wait()
}

func TestDLHTBasics(t *testing.T) {
	key := sig.NewKey(9)
	k := vfs.NewKernel(vfs.Config{}, newTestFS())
	c := Install(k, Config{Seed: 9})
	h := newDLHT(c.nodes, k)
	root := k.NewTask(cred.Root())
	if err := root.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	ref, err := root.Walk("/d", 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, sg := key.HashString("/d")
	if h.Lookup(idx, sg) != nil {
		t.Fatal("empty DLHT hit")
	}
	h.Insert(idx, sg, ref.D)
	if h.Lookup(idx, sg) != ref.D {
		t.Fatal("inserted dentry missing")
	}
	if n := h.Stats().Entries; n != 1 {
		t.Fatalf("len %d", n)
	}
	// Different signature in the same bucket must not match.
	other := sg
	other.W[1] ^= 1
	if h.Lookup(idx, other) != nil {
		t.Fatal("wrong-signature hit")
	}
	h.Remove(idx, sg, ref.D, telemetry.NoteNone)
	if h.Lookup(idx, sg) != nil || h.Stats().Entries != 0 {
		t.Fatal("remove failed")
	}
}

func TestDLHTChainRemoveMiddle(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{}, newTestFS())
	c := Install(k, Config{Seed: 10})
	h := newDLHT(c.nodes, k)
	root := k.NewTask(cred.Root())
	var refs []vfs.PathRef
	var sigs []sig.Signature
	key := sig.NewKey(10)
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("/d%d", i)
		if err := root.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
		ref, _ := root.Walk(p, 0)
		refs = append(refs, ref)
		_, sg := key.HashString(p)
		sigs = append(sigs, sg)
		h.Insert(77, sg, ref.D) // same bucket: exercise chaining
	}
	h.Remove(77, sigs[2], refs[2].D, telemetry.NoteNone)
	for i := 0; i < 5; i++ {
		got := h.Lookup(77, sigs[i])
		if i == 2 && got != nil {
			t.Fatal("removed entry found")
		}
		if i != 2 && got != refs[i].D {
			t.Fatalf("entry %d lost after middle removal", i)
		}
	}
}

// TestDLHTStopsAtIndexWidth: a DLHT starts at a thousand buckets, not the
// 2^16 the index could address, doubles as entries arrive, and stops at
// 2^16 — a seventh doubling would file entries under a hash bit the 16-bit
// index does not have. Past the ceiling chains lengthen and every entry is
// still found.
func TestDLHTStopsAtIndexWidth(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{}, newTestFS())
	c := Install(k, Config{Seed: 11})
	h := newDLHT(c.nodes, k)
	if st := h.Stats(); st.Buckets != 1<<10 || st.Bytes > 16<<10 {
		t.Fatalf("a new DLHT holds %+v, want 1024 buckets in <= 16 KB", st)
	}
	root := k.NewTask(cred.Root())
	ref, err := root.Walk("/", 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1<<sig.IndexBits + 1<<12
	key := func(i int) (uint16, sig.Signature) {
		return uint16(i * 40503), sig.Signature{W: [4]uint64{uint64(i), 1, 2, 3}}
	}
	for i := 0; i < n; i++ {
		idx, sg := key(i)
		h.Insert(idx, sg, ref.D)
	}
	if st := h.Stats(); st.Buckets != 1<<sig.IndexBits || st.Resizes != 6 || st.Entries != n {
		t.Fatalf("after %d inserts: %+v, want 65536 buckets after 6 doublings", n, st)
	}
	ep := k.Gate().Enter()
	defer k.Gate().Exit(ep)
	for i := 0; i < n; i += 61 {
		if idx, sg := key(i); h.Lookup(idx, sg) != ref.D {
			t.Fatalf("entry %d lost across the doublings", i)
		}
	}
}

func newTestFS() fsapi.FileSystem {
	return memfs.New(memfs.Options{})
}

func TestConcurrentFastpathWithMutations(t *testing.T) {
	k, _, root := optimized(t)
	for i := 0; i < 8; i++ {
		if err := root.Mkdir(fmt.Sprintf("/w%d", i), 0o755); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if err := root.Create(fmt.Sprintf("/w%d/f%d", i, j), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			tt := k.NewTask(cred.Root())
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := fmt.Sprintf("/w%d/f%d", i%4, i%8)
				if _, err := tt.Stat(p); err != nil {
					t.Errorf("reader stat %s: %v", p, err)
					return
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			tt := k.NewTask(cred.Root())
			base := fmt.Sprintf("/w%d", 4+w)
			for i := 0; i < 150; i++ {
				oldp := fmt.Sprintf("%s/f%d", base, i%8)
				newp := fmt.Sprintf("%s/g%d", base, i%8)
				if err := tt.Rename(oldp, newp); err != nil {
					t.Errorf("rename: %v", err)
					return
				}
				if _, err := tt.Stat(newp); err != nil {
					t.Errorf("stat after rename: %v", err)
					return
				}
				if _, err := tt.Stat(oldp); !errors.Is(err, fsapi.ENOENT) {
					t.Errorf("old path after rename: %v", err)
					return
				}
				if err := tt.Chmod(base, 0o755); err != nil {
					t.Errorf("chmod: %v", err)
					return
				}
				if err := tt.Rename(newp, oldp); err != nil {
					t.Errorf("rename back: %v", err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

func TestSignatureSeedsDiffer(t *testing.T) {
	// Two Cores with Seed 0 must draw different keys (boot randomness).
	k1 := vfs.NewKernel(vfs.Config{}, newTestFS())
	c1 := Install(k1, Config{})
	k2 := vfs.NewKernel(vfs.Config{}, newTestFS())
	c2 := Install(k2, Config{})
	_, s1 := c1.key.HashString("/etc/passwd")
	_, s2 := c2.key.HashString("/etc/passwd")
	if s1 == s2 {
		t.Fatal("two boots produced identical signatures")
	}
}

func TestPCCDynamicResize(t *testing.T) {
	// A working set larger than the initial table must trigger growth
	// (the production resize policy), after which the set fits.
	p := newPCC(1<<10, 64<<10) // 128 entries initial, 8192 max
	const ws = 1024
	for round := 0; round < 40; round++ {
		for id := uint64(1); id <= ws; id++ {
			if !p.Lookup(id, 1) {
				p.Insert(id, 1)
			}
		}
	}
	if p.Resizes() == 0 {
		t.Fatal("PCC never resized under sustained thrash")
	}
	if p.Entries() < ws {
		t.Fatalf("PCC grew to %d entries; working set %d", p.Entries(), ws)
	}
	// Steady state: the working set should now mostly hit.
	hits0, miss0 := p.Stats()
	for id := uint64(1); id <= ws; id++ {
		if !p.Lookup(id, 1) {
			p.Insert(id, 1)
		}
	}
	hits1, miss1 := p.Stats()
	if hits1-hits0 < (miss1-miss0)*4 {
		t.Fatalf("post-resize hit ratio poor: +%d hits, +%d misses", hits1-hits0, miss1-miss0)
	}
}

func TestPCCPinnedNeverResizes(t *testing.T) {
	p := newPCC(1<<10, 1<<10)
	for round := 0; round < 50; round++ {
		for id := uint64(1); id <= 2048; id++ {
			if !p.Lookup(id, 1) {
				p.Insert(id, 1)
			}
		}
	}
	if p.Resizes() != 0 {
		t.Fatal("pinned PCC resized")
	}
}
