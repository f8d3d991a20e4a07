package stripe

import (
	"sync"
	"testing"
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
