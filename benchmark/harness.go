package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"dircache"
)

// instance is one workload's system, built and warmed, seen from the load
// generator. exec runs op o as worker w, compares the answer with the
// stream's model, and reports whether it matched.
type instance interface {
	workers() int
	exec(w int, o op, tr *tracer) bool
	// systems are the caches behind the instance, for their counters.
	systems() []*dircache.System
	// counters are the instance's own cumulative per-layer counts (wire
	// and router counters); windows report their deltas.
	counters() map[string]float64
	// verify runs the end-of-run audits and returns what they found.
	verify() []string
	close()
}

type sample struct {
	ns    uint32
	class uint8
}

// window is what one measured interval produced.
type window struct {
	seconds float64
	ops     int
	failed  int
	samples []sample
	spans   []span
	dropped int
}

// load drives an instance closed-loop: each worker issues its next op
// when the previous one has answered.
type load struct {
	in  instance
	ops []op
	pos []int // per worker position in the ring
	// sampleEvery times one op in so many. Two clock reads are about a
	// fifth of a 480 ns in-process op, so only the wire times every op.
	sampleEvery int
	buf         [][]sample
}

func newLoad(in instance, ops []op, sampleEvery int) *load {
	l := &load{in: in, ops: ops, sampleEvery: sampleEvery}
	n := in.workers()
	l.pos = make([]int, n)
	l.buf = make([][]sample, n)
	for w := range l.pos {
		l.pos[w] = w * len(ops) / n // workers start evenly spaced around the ring
	}
	return l
}

// batch is how many ops a worker issues between looks at the clock.
const batch = 64

// runCount issues n ops per worker untimed: the fixed-count warm-up.
func (l *load) runCount(n int) window {
	return l.run(func(done int, _ time.Time) bool { return done >= n }, 0, 0)
}

// runFor measures one window. traceEvery > 0 records the spans of one op
// in so many.
func (l *load) runFor(d time.Duration, traceEvery int) window {
	return l.run(func(_ int, start time.Time) bool { return time.Since(start) >= d }, l.sampleEvery, traceEvery)
}

func (l *load) run(stop func(done int, start time.Time) bool, sampleEvery, traceEvery int) window {
	n := l.in.workers()
	parts := make([]window, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tr *tracer
			if traceEvery > 0 {
				tr = newTracer(w, start)
			}
			parts[w] = l.worker(w, start, stop, sampleEvery, traceEvery, tr)
		}(w)
	}
	wg.Wait()
	out := window{seconds: time.Since(start).Seconds()}
	for _, p := range parts {
		out.ops += p.ops
		out.failed += p.failed
		out.samples = append(out.samples, p.samples...)
		out.spans = append(out.spans, p.spans...)
		out.dropped += p.dropped
	}
	return out
}

func (l *load) worker(w int, start time.Time, stop func(int, time.Time) bool, sampleEvery, traceEvery int, tr *tracer) window {
	mask := len(l.ops) - 1
	pos := l.pos[w]
	samples := l.buf[w][:0]
	var out window
	for !stop(out.ops, start) {
		for j := 0; j < batch; j++ {
			o := l.ops[pos&mask]
			pos++
			var optr *tracer
			if traceEvery > 0 && (out.ops+j)%traceEvery == 0 {
				optr = tr
			}
			var ok bool
			if sampleEvery > 0 && j%sampleEvery == 0 {
				t0 := time.Now()
				ok = l.in.exec(w, o, optr)
				samples = append(samples, sample{ns: uint32(min(time.Since(t0), math.MaxUint32)), class: o.class})
			} else {
				ok = l.in.exec(w, o, optr)
			}
			if !ok {
				out.failed++
			}
		}
		out.ops += batch
	}
	l.pos[w] = pos
	l.buf[w] = samples
	out.samples = samples
	if tr != nil {
		out.spans, out.dropped = tr.spans, tr.dropped
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v (nearest rank), leaving v as it is.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[min(int(q*float64(len(c))), len(c)-1)]
}

// goodQuartile is the quartile of a run's windows on the better side of
// their median: the third for a value where higher is better, the first
// where lower is. What disturbs a window (a neighbour on the core, a
// stalled virtual CPU) only ever slows it, and in a rough minute it slows
// more than half of them, so the median window moves with the host while
// the best quarter still shows what the program does when left alone. In
// the sizing runs the quartile repeated about twice as closely as the
// median; higher quantiles follow single lucky windows and repeat worse.
func goodQuartile(v []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(v, 0.75)
	}
	return quantile(v, 0.25)
}

// highestPercentile is the highest of p50, p90, p99, p99.9 and p99.99
// that has at least ten of n samples beyond it; 0 when even the median
// has not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, tail := range []int{2, 10, 100, 1000, 10000} { // one sample in tail lies beyond
		if n >= 10*tail {
			best = 1 - 1/float64(tail)
		}
	}
	return best
}

// latencies are one window's sampled latencies in microseconds.
type latencies struct {
	all   []float64
	class [numClasses][]float64
}

func (w *window) latencies() *latencies {
	l := &latencies{all: make([]float64, 0, len(w.samples))}
	for _, s := range w.samples {
		us := float64(s.ns) / 1e3
		l.all = append(l.all, us)
		l.class[s.class] = append(l.class[s.class], us)
	}
	return l
}

// writeP50 is the median over the mutating classes' own medians.
func (l *latencies) writeP50() float64 {
	var meds []float64
	for c := range l.class {
		if mutating(uint8(c)) && len(l.class[c]) > 0 {
			meds = append(meds, median(l.class[c]))
		}
	}
	return median(meds)
}

// spread is (max-min)/median over the windows of one run.
func spread(v []float64) float64 {
	if m := median(v); m != 0 {
		return (slices.Max(v) - slices.Min(v)) / m
	}
	return 0
}
