// Epoch gate: the grace-period machinery for slab reclamation. Readers
// (walks, syscalls, audit scans) enter a cheap epoch-stamped critical
// section; retired slots are only recycled once every section that could
// have observed them has exited. This is the same idea as the PR-4
// shootdown epochs (batch invalidation stamped with shootGen, validated
// lazily), extended from "when may a cached decision be trusted" to
// "when may memory be reused": epoch-based reclamation with a 3-slot
// counter wheel, striped to keep Enter/Exit off a shared cache line.
package slab

import (
	"sync/atomic"

	"dircache/internal/stripe"
)

// gateSlots is the counter wheel size. Three slots suffice: at global
// epoch g only readers from g and g-1 can be active (the advance to g
// proved epoch g-2 had drained), so slot (g+1)%3 is guaranteed idle and
// can be recycled for epoch g+1.
const gateSlots = 3

// gateStripe is one cache-line-padded stripe of the wheel.
type gateStripe struct {
	counts [gateSlots]atomic.Int64
	_      [64 - (gateSlots*8)%64]byte
}

// Gate is a shared epoch clock. One Gate serves every arena of a kernel:
// a single Enter/Exit pair per operation protects every slot it reads.
type Gate struct {
	global  atomic.Uint64
	stripes [stripe.Stripes]gateStripe
}

// NewGate returns a gate with the epoch clock started. The clock begins
// at 3 so that epoch arithmetic (e-1, e-2) never underflows.
func NewGate() *Gate {
	g := &Gate{}
	g.global.Store(3)
	return g
}

// Enter opens a read-side critical section and returns the pinned epoch,
// which must be passed to Exit. Sections nest freely. The loop handles
// the race with a concurrent advance: if the global epoch moved between
// the count increment and the re-check, the increment landed in a slot
// the advancer may already have inspected, so it is rolled back and the
// entry retried under the new epoch. No allocation, two atomic adds in
// the common case.
func (g *Gate) Enter() uint64 {
	i := stripe.Index()
	for {
		e := g.global.Load()
		g.stripes[i].counts[e%gateSlots].Add(1)
		if g.global.Load() == e {
			return e
		}
		g.stripes[i].counts[e%gateSlots].Add(-1)
	}
}

// Exit closes a section opened at epoch e. It may run on a different
// goroutine stack position than Enter, so it may hit a different stripe;
// only the sum across stripes is meaningful, and individual cells may go
// transiently negative.
func (g *Gate) Exit(e uint64) {
	g.stripes[stripe.Index()].counts[e%gateSlots].Add(-1)
}

// Current returns the global epoch. A slot retired at epoch r is
// reclaimable once Current() >= r+2: the advance to r+1 admitted no new
// readers at r, and the advance to r+2 required... see TryAdvance.
func (g *Gate) Current() uint64 {
	return g.global.Load()
}

// TryAdvance attempts to move the epoch clock from e to e+1. The move is
// legal once every reader pinned at e-1 has exited (their slot sums to
// zero); readers still pinned at e simply become the next epoch's
// stragglers. With this rule, at global epoch g only readers from g and
// g-1 exist, so anything retired at epoch r is unreachable-and-unheld
// once g >= r+2. Returns whether the clock moved.
func (g *Gate) TryAdvance() bool {
	e := g.global.Load()
	slot := (e + gateSlots - 1) % gateSlots
	var sum int64
	for i := range g.stripes {
		sum += g.stripes[i].counts[slot].Load()
	}
	if sum != 0 {
		return false
	}
	return g.global.CompareAndSwap(e, e+1)
}

// Pinned reports whether any reader currently holds a section (sum over
// the whole wheel). Diagnostic only; inherently racy.
func (g *Gate) Pinned() int64 {
	var sum int64
	for i := range g.stripes {
		for s := 0; s < gateSlots; s++ {
			sum += g.stripes[i].counts[s].Load()
		}
	}
	return sum
}
