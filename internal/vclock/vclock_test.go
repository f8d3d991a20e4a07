package vclock

import (
	"sync"
	"testing"
)

func TestRunCharges(t *testing.T) {
	var r Run
	if r.Nanos() != 0 || r.Ops() != 0 {
		t.Fatalf("zero Run reads %d ns over %d ops", r.Nanos(), r.Ops())
	}
	r.Charge(100)
	r.Charge(250)
	r.Charge(0) // no time, no operation
	if r.Nanos() != 350 || r.Ops() != 2 {
		t.Fatalf("after charging 100 and 250: %d ns over %d ops, want 350 over 2", r.Nanos(), r.Ops())
	}
	r.Reset()
	if r.Nanos() != 0 || r.Ops() != 0 {
		t.Fatalf("after Reset: %d ns over %d ops", r.Nanos(), r.Ops())
	}
	r.Charge(7)
	if r.Nanos() != 7 || r.Ops() != 1 {
		t.Fatalf("a Run charges again after Reset: %d ns over %d ops, want 7 over 1", r.Nanos(), r.Ops())
	}
}

// A substrate without a Run charges a nil one: every method is a no-op.
func TestNilRun(t *testing.T) {
	var r *Run
	r.Charge(100)
	r.Reset()
	if r.Nanos() != 0 || r.Ops() != 0 {
		t.Fatalf("nil Run reads %d ns over %d ops", r.Nanos(), r.Ops())
	}
}

func TestRunConcurrentCharges(t *testing.T) {
	var r Run
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Charge(3)
			}
		}()
	}
	wg.Wait()
	if r.Nanos() != 4*1000*3 || r.Ops() != 4*1000 {
		t.Fatalf("four goroutines charging 1000 x 3 ns: %d ns over %d ops", r.Nanos(), r.Ops())
	}
}
