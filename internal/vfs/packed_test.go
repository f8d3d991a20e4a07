package vfs

import (
	"sync"
	"testing"
)

// fastTally is what the packed word counts, read from a snapshot.
type fastTally struct{ hits, memo, bytes int64 }

func tallyOf(s Stats) fastTally { return fastTally{s.FastHits, s.PrefixMemoHits, s.HashedBytes} }

// packedBelowTops reports whether no stripe's packed word has a field at
// or past its top bit: every crossing has been carried.
func (k *Kernel) packedBelowTops() bool {
	for i := range k.stats.cells {
		if k.stats.cells[i].packed.Load()&packTops != 0 {
			return false
		}
	}
	return true
}

// TestPackedCarryExact drives each packed field across its carry point
// from three below it, one add at a time and with adds of several bytes,
// and reads Stats after every add: exact at each step, and every crossing
// carried.
func TestPackedCarryExact(t *testing.T) {
	k, _ := newKernel(t, Config{})
	before := tallyOf(k.Stats())
	k.PreloadPacked(3)
	if got := tallyOf(k.Stats()); got != before {
		t.Fatalf("preloading moved the snapshot: %+v -> %+v", before, got)
	}
	var want fastTally
	for i := 0; i < 8; i++ {
		hit, memo, bytes := i%4 != 3, i%2 == 0, i%3
		k.CountFast(hit, memo, bytes)
		if hit {
			want.hits++
		}
		if memo {
			want.memo++
		}
		want.bytes += int64(bytes)
		got := tallyOf(k.Stats())
		got = fastTally{got.hits - before.hits, got.memo - before.memo, got.bytes - before.bytes}
		if got != want {
			t.Fatalf("after add %d: snapshot counts %+v, want %+v", i, got, want)
		}
	}
	if !k.packedBelowTops() {
		t.Fatal("a field past its carry point was not carried")
	}
	if s := k.Stats(); s.Lookups != s.FastHits+s.SlowWalks {
		t.Fatalf("Lookups %d, want FastHits %d + SlowWalks %d", s.Lookups, s.FastHits, s.SlowWalks)
	}
}

// TestPackedFoldConcurrent: in each of many rounds every stripe is
// preloaded a little below the carry points, and four goroutines add
// fastpath tallies across them while a reader snapshots. Every field of
// every snapshot is at least what the one before it read (Delta's
// promise, which a carry seen half done would break), and at quiescence
// the totals are exact.
func TestPackedFoldConcurrent(t *testing.T) {
	const (
		rounds  = 40
		workers = 4
		adds    = 2000
	)
	k, _ := newKernel(t, Config{})
	before := tallyOf(k.Stats())
	prev := k.Stats()
	for r := 0; r < rounds; r++ {
		k.PreloadPacked(uint64(1 + r%7))
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < adds; i++ {
					k.CountFast(true, i%3 == 0, i%11)
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for reading := true; reading; {
			select {
			case <-done:
				reading = false
			default:
			}
			cur := k.Stats()
			if p, c := tallyOf(prev), tallyOf(cur); c.hits < p.hits || c.memo < p.memo || c.bytes < p.bytes || cur.Lookups < prev.Lookups {
				t.Fatalf("round %d: a snapshot went back: %+v (lookups %d) after %+v (lookups %d)", r, c, cur.Lookups, p, prev.Lookups)
			}
			prev = cur
		}
		if !k.packedBelowTops() {
			t.Fatalf("round %d: a field past its carry point was not carried", r)
		}
	}
	var want fastTally
	for i := 0; i < adds; i++ {
		want.hits++
		if i%3 == 0 {
			want.memo++
		}
		want.bytes += int64(i % 11)
	}
	n := int64(rounds * workers)
	want = fastTally{before.hits + n*want.hits, before.memo + n*want.memo, before.bytes + n*want.bytes}
	if got := tallyOf(k.Stats()); got != want {
		t.Fatalf("at quiescence the snapshot counts %+v, want %+v", got, want)
	}
}
