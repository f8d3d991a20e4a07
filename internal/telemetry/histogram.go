package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
	"unsafe"

	"dircache/internal/stripe"
)

// NumBuckets is the histogram resolution: log-bucketed with four
// sub-buckets per power of two (~±12.5% relative error), covering 1 ns
// through ~2 minutes before the overflow bucket absorbs the rest. Chosen
// so one striped cell (counts + sum) stays near a kilobyte — small enough
// that a Kernel can carry one histogram per cost center without moving
// the dentry working set out of cache.
const NumBuckets = 144

// bucketOf maps a latency in nanoseconds to its bucket. Buckets 0..3 hold
// the exact values 0..3 ns; from there each power of two splits into four
// sub-buckets keyed by the two bits below the leading one.
func bucketOf(ns uint64) int {
	if ns < 4 {
		return int(ns)
	}
	o := bits.Len64(ns) - 1 // floor(log2 ns), >= 2
	b := (o-1)*4 + int((ns>>(uint(o)-2))&3)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// bucketLower returns the smallest nanosecond value landing in bucket b.
func bucketLower(b int) uint64 {
	if b < 4 {
		return uint64(b)
	}
	o := b/4 + 1
	sub := uint64(b % 4)
	return (4 + sub) << (uint(o) - 2)
}

// BucketUpper returns the exclusive upper bound of bucket b in
// nanoseconds (the Prometheus `le` boundary). The last bucket is open.
func BucketUpper(b int) uint64 {
	if b >= NumBuckets-1 {
		return 1<<63 - 1
	}
	return bucketLower(b + 1)
}

// histCell is one stripe's worth of a histogram. Sized to a multiple of
// the cache line so neighbouring cells never share a line; within a cell
// the bucket counters may share lines, but only with counters written by
// the same goroutine's stripe.
type histCell struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64 // total observed nanoseconds
	_      [56]byte
}

// exemplarArray is a histogram's bucket exemplars.
type exemplarArray [NumBuckets]atomic.Uint64

// Histogram is a lock-free striped latency histogram in the spirit of
// internal/stripe: recorders bump one cell picked by a per-goroutine
// hash, readers sum all cells. Snapshots are racy the same way striped
// counter sums are — each bucket is monotonic, so a snapshot is a valid,
// instantaneously slightly stale distribution. The zero value is ready.
//
// A stripe's cell is allocated on that stripe's first Record, and the
// exemplar array on the first traced one: a histogram nothing records
// into costs its pointers, and one a single goroutine records into costs
// the cells its call depths hash to, not Stripes of them.
type Histogram struct {
	cells [stripe.Stripes]atomic.Pointer[histCell]

	// exemplars[b] is the most recent trace ID whose observation landed
	// in bucket b — the link from a quantile back to a flight-recorder
	// trace. One shared array (not striped): last-writer-wins is exactly
	// the semantic wanted, and only traced observations write it.
	exemplars atomic.Pointer[exemplarArray]
}

// loadOrNew returns *p, storing a new zero T there first if it is nil.
// Callers racing to store lose to one compare-and-swap and all use its T.
func loadOrNew[T any](p *atomic.Pointer[T]) *T {
	if v := p.Load(); v != nil {
		return v
	}
	p.CompareAndSwap(nil, new(T))
	return p.Load()
}

// Record adds one observation. Negative durations (clock steps) clamp to
// zero rather than corrupting a bucket index.
func (h *Histogram) Record(d time.Duration) {
	var ns uint64
	if d > 0 {
		ns = uint64(d)
	}
	c := loadOrNew(&h.cells[stripe.Index()])
	c.counts[bucketOf(ns)].Add(1)
	c.sum.Add(ns)
}

// RecordEx is Record plus an exemplar: the bucket remembers traceID as
// the most recent trace that landed in it (0 = untraced, no exemplar).
func (h *Histogram) RecordEx(d time.Duration, traceID uint64) {
	var ns uint64
	if d > 0 {
		ns = uint64(d)
	}
	b := bucketOf(ns)
	c := loadOrNew(&h.cells[stripe.Index()])
	c.counts[b].Add(1)
	c.sum.Add(ns)
	if traceID != 0 {
		loadOrNew(&h.exemplars)[b].Store(traceID)
	}
}

// Reset zeroes every cell. It is only approximate under concurrent
// Records; callers use it to scope a measurement window, not for
// accounting. Cells stay allocated.
func (h *Histogram) Reset() {
	for i := range h.cells {
		c := h.cells[i].Load()
		if c == nil {
			continue
		}
		for b := range c.counts {
			c.counts[b].Store(0)
		}
		c.sum.Store(0)
	}
	if ex := h.exemplars.Load(); ex != nil {
		for b := range ex {
			ex[b].Store(0)
		}
	}
}

// footprint is how many cells the histogram has allocated, and their
// bytes with the exemplar array's.
func (h *Histogram) footprint() (cells int, bytes int64) {
	for i := range h.cells {
		if h.cells[i].Load() != nil {
			cells++
		}
	}
	if h.exemplars.Load() != nil {
		bytes = int64(unsafe.Sizeof(exemplarArray{}))
	}
	return cells, bytes + int64(cells)*int64(unsafe.Sizeof(histCell{}))
}

// HistSnapshot is a merged point-in-time copy of a Histogram.
type HistSnapshot struct {
	Name      string
	Counts    [NumBuckets]uint64
	Exemplars [NumBuckets]uint64 // most recent trace ID per bucket (0 = none)
	Count     uint64             // total observations
	Sum       uint64             // total nanoseconds
}

// Snapshot merges the stripes that have cells.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.cells {
		c := h.cells[i].Load()
		if c == nil {
			continue
		}
		for b := range c.counts {
			n := c.counts[b].Load()
			s.Counts[b] += n
			s.Count += n
		}
		s.Sum += c.sum.Load()
	}
	if ex := h.exemplars.Load(); ex != nil {
		for b := range s.Exemplars {
			s.Exemplars[b] = ex[b].Load()
		}
	}
	return s
}

// QuantileExemplar returns the most recent trace ID recorded in the
// bucket where the q-th quantile lands (0 if that bucket never saw a
// traced observation) — "the p99 is X, and here is a trace that slow".
func (s *HistSnapshot) QuantileExemplar(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for b := 0; b < NumBuckets; b++ {
		n := float64(s.Counts[b])
		if n == 0 {
			continue
		}
		if cum+n >= target {
			// Walk down from the landing bucket to the nearest one with
			// an exemplar: a nearby slower trace beats no trace.
			for j := NumBuckets - 1; j >= b; j-- {
				if s.Counts[j] > 0 && s.Exemplars[j] != 0 {
					return s.Exemplars[j]
				}
			}
			for j := b - 1; j >= 0; j-- {
				if s.Exemplars[j] != 0 {
					return s.Exemplars[j]
				}
			}
			return 0
		}
		cum += n
	}
	return 0
}

// Quantile returns the q-th latency quantile (q in [0,1]), interpolating
// linearly within the landing bucket. Zero observations yield zero.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for b := 0; b < NumBuckets; b++ {
		n := float64(s.Counts[b])
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := float64(bucketLower(b)), float64(BucketUpper(b))
			if b == NumBuckets-1 {
				hi = lo * 2 // open bucket: nominal width
			}
			frac := 0.0
			if n > 0 {
				frac = (target - cum) / n
			}
			return time.Duration(lo + (hi-lo)*frac)
		}
		cum += n
	}
	return time.Duration(bucketLower(NumBuckets - 1))
}

// Mean returns the average observed latency.
func (s *HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}
