package telemetry

import (
	"sync/atomic"
	"time"
)

// flightRecorder is the slow-walk flight recorder: a fixed-size
// drop-oldest ring that retains only *qualifying* completed traces —
// those whose latency exceeded the slow threshold, or that took
// an anomalous path (a fall-back to the ref-walk lock, a coalesce wait
// past the threshold). Where the sampled trace ring answers "what do
// walks look like", the flight recorder answers "what did the bad ones
// look like" long after they scrolled out of the sample.
type flightRecorder struct {
	ring   *traceRing
	slowNS atomic.Int64 // nanoseconds; SetSlowThreshold changes it
}

// defaultSlowNS is the out-of-the-box slow threshold: 1ms is an eternity
// for a warm walk (ns scale) yet short enough to catch real stalls on
// wire ops.
const defaultSlowNS = int64(time.Millisecond)

func newFlightRecorder(capacity int, slowNS int64) *flightRecorder {
	if slowNS <= 0 {
		slowNS = defaultSlowNS
	}
	f := &flightRecorder{ring: newTraceRing(capacity)}
	f.slowNS.Store(slowNS)
	return f
}

// offer records tr if it qualifies. tr must already be immutable (the
// callers push the same pointer into the sampled ring).
func (f *flightRecorder) offer(tr *WalkTrace) {
	if tr.Anomaly == "" && tr.DurNS < f.slowNS.Load() {
		return
	}
	f.ring.push(tr)
}
