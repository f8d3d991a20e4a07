package slab

import (
	"fmt"
	"sync"
	"testing"
)

type obj struct {
	v int
}

// TestArenaAllocResolveRetire: the basic slot lifecycle — a ref resolves
// while live, stops resolving the instant the slot is retired, and the
// slot only returns to the free-list after two epoch advances.
func TestArenaAllocResolveRetire(t *testing.T) {
	g := NewGate()
	a := New[obj](g, Options{})

	r, p := a.Alloc()
	if r.IsZero() || r.G&1 != 1 {
		t.Fatalf("alloc ref %+v: want non-zero odd generation", r)
	}
	p.v = 42
	if got := a.Resolve(r); got != p || got.v != 42 {
		t.Fatalf("resolve live ref: got %v", got)
	}
	if a.Stats().Live != 1 {
		t.Fatalf("live = %d", a.Stats().Live)
	}

	a.Retire(r)
	if a.Resolve(r) != nil {
		t.Fatal("retired ref still resolves")
	}
	a.Retire(r) // idempotent
	if s := a.Stats(); s.Live != 0 || s.Limbo != 1 {
		t.Fatalf("after retire: %+v", s)
	}

	// Grace: no reclaim until the clock has advanced twice past the
	// retire epoch.
	if n := a.Reclaim(100); n != 0 {
		t.Fatalf("reclaimed %d slots immediately after retire", n)
	}
	// Each call nudges the clock when no readers are pinned; within two
	// more nudges the grace period has elapsed.
	if n := a.Reclaim(100) + a.Reclaim(100); n != 1 {
		t.Fatalf("reclaim after grace: %d", n)
	}
	if s := a.Stats(); s.Free != 1 || s.Limbo != 0 || s.Reclaimed != 1 {
		t.Fatalf("after reclaim: %+v", s)
	}

	// Reuse bumps the generation past the retired one: the old ref can
	// never resolve to the new tenant.
	r2, _ := a.Alloc()
	if r2.H != r.H {
		t.Fatalf("free-list slot not reused: %v then %v", r, r2)
	}
	if r2.G <= r.G || r2.G&1 != 1 {
		t.Fatalf("generations: %d then %d", r.G, r2.G)
	}
	if a.Resolve(r) != nil {
		t.Fatal("stale ref resolves to the slot's new tenant (ABA)")
	}
}

// TestArenaPinnedReaderBlocksReclaim: a pinned epoch section holds the
// grace period open — slots retired while the reader is in-section are
// not recycled until it exits.
func TestArenaPinnedReaderBlocksReclaim(t *testing.T) {
	g := NewGate()
	a := New[obj](g, Options{})
	r, _ := a.Alloc()

	e := g.Enter()
	a.Retire(r)
	for i := 0; i < 5; i++ {
		if n := a.Reclaim(100); n != 0 {
			t.Fatalf("reclaimed %d slots with a reader pinned", n)
		}
	}
	g.Exit(e)
	total := 0
	for i := 0; i < 4 && total == 0; i++ {
		total += a.Reclaim(100)
	}
	if total != 1 {
		t.Fatalf("reclaim after reader exit: %d", total)
	}
}

// TestArenaChunkGrowthKeepsPointers: growing the chunk directory must not
// move existing slots (interior pointers stay valid).
func TestArenaChunkGrowthKeepsPointers(t *testing.T) {
	g := NewGate()
	a := New[obj](g, Options{ChunkLog2: 2}) // 4 slots/chunk
	type held struct {
		r Ref
		p *obj
	}
	var hs []held
	for i := 0; i < 100; i++ {
		r, p := a.Alloc()
		p.v = i
		hs = append(hs, held{r, p})
	}
	if a.Stats().Chunks < 25 {
		t.Fatalf("chunks = %d", a.Stats().Chunks)
	}
	for i, h := range hs {
		if q := a.Resolve(h.r); q != h.p || q.v != i {
			t.Fatalf("slot %d moved or lost: %v vs %v", i, q, h.p)
		}
	}
}

// TestPackUnpack round-trips refs through the packed uint64 form.
func TestPackUnpack(t *testing.T) {
	for _, r := range []Ref{{}, {H: 1, G: 1}, {H: 0xffffffff, G: 0x7fffffff}} {
		if got := Unpack(r.Pack()); got != r {
			t.Fatalf("pack/unpack: %+v -> %+v", r, got)
		}
	}
	if (Ref{}).Pack() != 0 {
		t.Fatal("zero ref must pack to 0")
	}
}

// TestGateAdvanceRequiresDrain: the clock cannot advance twice past a
// pinned reader (the reader's epoch stays within the 2-epoch window the
// grace period assumes).
func TestGateAdvanceRequiresDrain(t *testing.T) {
	g := NewGate()
	e := g.Enter()
	start := g.Current()
	adv := 0
	for i := 0; i < 10; i++ {
		if g.TryAdvance() {
			adv++
		}
	}
	if g.Current() > start+1 {
		t.Fatalf("clock advanced from %d to %d with a reader pinned", start, g.Current())
	}
	g.Exit(e)
	for i := 0; i < 3; i++ {
		g.TryAdvance()
	}
	if g.Current() < start+2 {
		t.Fatalf("clock stuck at %d after reader exit", g.Current())
	}
	_ = adv
}

// TestGateConcurrentSections hammers Enter/Exit from many goroutines
// while another advances the clock, asserting the counters stay balanced
// (Pinned returns to zero).
func TestGateConcurrentSections(t *testing.T) {
	g := NewGate()
	stop := make(chan struct{})
	var adv sync.WaitGroup
	adv.Add(1)
	go func() {
		defer adv.Done()
		for {
			select {
			case <-stop:
				return
			default:
				g.TryAdvance()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				e := g.Enter()
				g.Exit(e)
			}
		}()
	}
	wg.Wait()
	close(stop)
	adv.Wait()
	if p := g.Pinned(); p != 0 {
		t.Fatalf("pinned = %d after all sections exited", p)
	}
}

// TestArenaConcurrentChurn: allocate/retire/reclaim from many goroutines
// with readers resolving stale refs; no ref may ever resolve to a
// different tenant (checked via a value stamped with the ref's handle and
// generation).
func TestArenaConcurrentChurn(t *testing.T) {
	g := NewGate()
	a := New[[2]uint64](g, Options{ChunkLog2: 6})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []Ref
			for i := 0; i < 5000; i++ {
				r, p := a.Alloc()
				p[0] = uint64(r.H)
				p[1] = uint64(r.G)
				mine = append(mine, r)
				if len(mine) > 16 {
					old := mine[0]
					mine = mine[1:]
					e := g.Enter()
					if q := a.Resolve(old); q != nil {
						if q[0] != uint64(old.H) || q[1] != uint64(old.G) {
							panic("resolved ref belongs to a different tenant")
						}
					}
					g.Exit(e)
					a.Retire(old)
					if q := a.Resolve(old); q != nil {
						panic("ref resolves after retire")
					}
				}
				if i%64 == 0 {
					a.Reclaim(64)
				}
			}
			for _, r := range mine {
				a.Retire(r)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 6; i++ {
		a.Reclaim(1 << 20)
	}
	s := a.Stats()
	if s.Live != 0 || s.Limbo != 0 {
		t.Fatalf("after drain: %+v", s)
	}
	if s.Retired != s.Reclaimed {
		t.Fatalf("retired %d != reclaimed %d", s.Retired, s.Reclaimed)
	}
}

// BenchmarkArenaChunkSize prices the chunk-size choice behind
// DefaultChunkLog2 on the two things it could move: Alloc while the arena
// grows (a chunk is three allocations plus its zeroing, spread over its
// slots) and Resolve over everything allocated (one more directory entry
// per chunk to keep cached). The slot is dentry-sized and an arena holds
// 1<<16 of them (10 MB) however long the benchmark runs.
func BenchmarkArenaChunkSize(b *testing.B) {
	type slot [160]byte
	const held = 1 << 16
	for _, log2 := range []int{8, 10, 13} {
		b.Run(fmt.Sprintf("alloc/log2-%d", log2), func(b *testing.B) {
			var a *Arena[slot]
			for i := 0; i < b.N; i++ {
				if i%held == 0 {
					a = New[slot](NewGate(), Options{ChunkLog2: log2})
				}
				a.Alloc()
			}
		})
		b.Run(fmt.Sprintf("resolve/log2-%d", log2), func(b *testing.B) {
			a := New[slot](NewGate(), Options{ChunkLog2: log2})
			refs := make([]Ref, held)
			for i := range refs {
				refs[i], _ = a.Alloc()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a.Resolve(refs[(i*7919)&(held-1)]) == nil {
					b.Fatal("live ref did not resolve")
				}
			}
		})
	}
}
