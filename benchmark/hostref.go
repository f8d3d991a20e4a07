package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// The reference box is two virtual cores of a shared host. Whoever else
// runs on the same physical core slows this process by 10-30% for seconds
// or minutes at a time: in the sizing runs the same code with the same
// seed read 340 k to 465 k ops/s on churn_mix from one 12 s run to the
// next, and a loop that touches none of the repository's code moved with
// it. hostRef is that loop. The untraced run reads it between windows and
// scales a system's window times by what the loop says of the host while
// the system was measured (see runE2E), so that two runs of the same code
// agree more closely than the host did.

const (
	// refLoads is the length of the chase: 512 KB of uint32, which the
	// core's own L2 holds and its L1 does not. Of the loops tried (an ALU
	// chain, chases through 512 KB and 32 MB, lookups in a 2 MB and a
	// 16 MB table of strings) this one followed the workloads best.
	refLoads = 1 << 17
	// refLaps is how many timed laps one reading takes, after an untimed
	// lap that brings the buffer back into the cache: about 10 ms.
	refLaps = 12
)

// refNominalNS is what the loop reads on the reference box when nothing
// disturbs it, by the number of chases running at once: ns per load.
// Scaled values are what the run would have measured on a host where the
// loop reads this.
var refNominalNS = map[int]float64{1: 5.2, 2: 5.5}

// hostRef is a dependent-load chase through a buffer that depends on no
// seed and on no code of the repository, one chase per worker of the
// workload: two workers keep both cores busy, and what each core then
// gets depends on whether the host has put the two on one physical core,
// which a single chase would not see.
type hostRef struct {
	chases  []chase
	nominal float64
}

type chase struct {
	next []uint32
	laps [refLaps]float64
	end  uint32 // where the last lap ended: keeps the loads alive
}

func newHostRef(workers int) *hostRef {
	rng := rand.New(rand.NewSource(1))
	h := &hostRef{chases: make([]chase, workers), nominal: refNominalNS[workers]}
	if h.nominal == 0 {
		panic(fmt.Sprintf("benchmark: no nominal host reading for %d chases at once", workers))
	}
	for c := range h.chases {
		next := make([]uint32, refLoads)
		for i := range next {
			next[i] = uint32(i)
		}
		for i := len(next) - 1; i > 0; i-- { // Sattolo: one cycle through every slot
			j := rng.Intn(i)
			next[i], next[j] = next[j], next[i]
		}
		h.chases[c].next = next
	}
	return h
}

func (c *chase) lap() time.Duration {
	at := uint32(0)
	t0 := time.Now()
	for i := 0; i < refLoads; i++ {
		at = c.next[at]
	}
	d := time.Since(t0)
	c.end = at
	return d
}

// read is one chase's ns per load: the median lap, so that a lap the
// hypervisor stalled does not count.
func (c *chase) read() float64 {
	c.lap()
	for i := range c.laps {
		c.laps[i] = float64(c.lap()) / refLoads
	}
	return median(c.laps[:])
}

// read returns ns per load now, the mean over the chases, which run at
// the same time.
func (h *hostRef) read() float64 {
	if len(h.chases) == 1 {
		return h.chases[0].read()
	}
	got := make([]float64, len(h.chases))
	var wg sync.WaitGroup
	for c := range h.chases {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = h.chases[c].read()
		}(c)
	}
	wg.Wait()
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	return sum / float64(len(got))
}

// factor is the share of its nominal speed the host ran at when the loop
// read refNS: below 1 on a slowed host.
func (h *hostRef) factor(refNS float64) float64 { return h.nominal / refNS }
