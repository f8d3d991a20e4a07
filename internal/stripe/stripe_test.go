package stripe

import (
	"sync"
	"testing"
	"unsafe"
)

// TestIndexInRange: every goroutine's stripe addresses a cell, however deep
// its stack is when it asks.
func TestIndexInRange(t *testing.T) {
	var deep func(n int) int
	deep = func(n int) int { // each level moves the stack local Index hashes
		if n == 0 {
			return Index()
		}
		return deep(n - 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 64; n++ {
				if i := deep(n + g); i < 0 || i >= Stripes {
					t.Errorf("Index() = %d at depth %d, want [0, %d)", i, n+g, Stripes)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInt64ExactAfterWriters: with no writer in flight the racy sum is
// exact, whichever cells the writers landed on.
func TestInt64ExactAfterWriters(t *testing.T) {
	const writers, adds = 8, 10000
	var c Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				c.Add(int64(g + 1))
			}
		}(g)
	}
	wg.Wait()
	if got, want := c.Load(), int64(adds*writers*(writers+1)/2); got != want {
		t.Fatalf("Load() = %d after %d writers, want %d", got, writers, want)
	}
}

// TestResetZeroesEveryCell: Reset clears the cells other goroutines wrote,
// not only the caller's.
func TestResetZeroesEveryCell(t *testing.T) {
	var c Int64
	for i := range c.cells {
		c.cells[i].v.Store(int64(i + 1))
	}
	c.Reset()
	for i := range c.cells {
		if v := c.cells[i].v.Load(); v != 0 {
			t.Errorf("cell %d holds %d after Reset", i, v)
		}
	}
	if c.Load() != 0 {
		t.Errorf("Load() = %d after Reset", c.Load())
	}
}

// TestCellFillsALine: a cell is one cache line, so neighbouring cells never
// share one.
func TestCellFillsALine(t *testing.T) {
	if n := unsafe.Sizeof(cell{}); n != cacheLine {
		t.Fatalf("unsafe.Sizeof(cell{}) = %d, want %d", n, cacheLine)
	}
}
