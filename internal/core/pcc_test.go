package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// ranksOf decodes a set's lru word into its ways' ranks, and reports
// whether they are a permutation of 0..pccWays-1.
func ranksOf(s *pccSet) ([pccWays]int, bool) {
	var r [pccWays]int
	var seen [pccWays]bool
	word := s.lru.Load() ^ pccRanks0
	for w := range r {
		r[w] = int(word >> (8 * w) & 0xff)
		if r[w] >= pccWays || seen[r[w]] {
			return r, false
		}
		seen[r[w]] = true
	}
	return r, true
}

// TestPCCRanksFollowModel runs random inserts and lookups on a one-set PCC
// beside a model LRU list: after every step the set holds exactly the
// model's IDs, and the lru word ranks them in the model's order, so an
// insert into a full set evicts the least recently used way.
func TestPCCRanksFollowModel(t *testing.T) {
	p := newPCC(pccWays * pccEntryBytes)
	if len(p.sets) != 1 {
		t.Fatalf("PCC has %d sets, want 1", len(p.sets))
	}
	s := &p.sets[0]
	var model []uint64 // newest first
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 5000; step++ {
		id := uint64(1 + rng.Intn(2*pccWays))
		at := slices.Index(model, id)
		if rng.Intn(2) == 0 {
			p.Insert(id, 1)
			switch {
			case at >= 0:
				model = slices.Delete(model, at, at+1)
			case len(model) == pccWays:
				model = model[:pccWays-1]
			}
			model = slices.Insert(model, 0, id)
		} else if hit := p.Lookup(id, 1); hit != (at >= 0) {
			t.Fatalf("step %d: Lookup(%d) = %v, model holds it: %v", step, id, hit, at >= 0)
		} else if hit {
			model = slices.Insert(slices.Delete(model, at, at+1), 0, id)
		}
		ranks, ok := ranksOf(s)
		if !ok {
			t.Fatalf("step %d: lru word %#x is no permutation", step, s.lru.Load())
		}
		if len(model) < pccWays {
			continue
		}
		for w := range ranks {
			if got, want := s.ways[w].Load()&0xffffffff, model[ranks[w]]; got != want {
				t.Fatalf("step %d: way %d (rank %d) holds %d, the model ranks %v", step, w, ranks[w], got, model)
			}
		}
	}
}

// TestPCCNewestHitWritesNothing: a hit on the set's newest way leaves the
// lru word bit for bit as it was, a fresh set's first insert included
// (the zero word already ranks way 0 newest); a hit on an older way
// rewrites it, and from then on hits on that way write nothing.
func TestPCCNewestHitWritesNothing(t *testing.T) {
	p := newPCC(pccWays * pccEntryBytes)
	s := &p.sets[0]
	p.Insert(1, 1)
	if w := s.lru.Load(); w != 0 {
		t.Fatalf("a fresh set's first insert wrote its lru word: %#x", w)
	}
	for id := uint64(2); id <= pccWays; id++ {
		p.Insert(id, 1)
	}
	for _, c := range []struct {
		id     uint64
		writes bool
	}{{pccWays, false}, {pccWays, false}, {1, true}, {1, false}, {1, false}, {2, true}, {2, false}} {
		before := s.lru.Load()
		if !p.Lookup(c.id, 1) {
			t.Fatalf("Lookup(%d) missed", c.id)
		}
		if wrote := s.lru.Load() != before; wrote != c.writes {
			t.Fatalf("a hit on %d rewrote the lru word: %v (%#x -> %#x), want %v", c.id, wrote, before, s.lru.Load(), c.writes)
		}
	}
}

// TestPCCRanksConcurrent: goroutines inserting and looking up in the same
// two sets race their touches, which may be lost but never leave a set's
// lru word anything but a permutation.
func TestPCCRanksConcurrent(t *testing.T) {
	p := newPCC(2 * pccWays * pccEntryBytes)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20000; i++ {
				id := uint64(1 + rng.Intn(12))
				if rng.Intn(3) == 0 {
					p.Insert(id, 1)
				} else {
					p.Lookup(id, 1)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for checking := true; checking; {
		select {
		case <-done:
			checking = false
		default:
		}
		for i := range p.sets {
			if _, ok := ranksOf(&p.sets[i]); !ok {
				t.Fatalf("set %d's lru word %#x is no permutation", i, p.sets[i].lru.Load())
			}
		}
	}
}
