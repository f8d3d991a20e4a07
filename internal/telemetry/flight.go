package telemetry

import "time"

// The slow-walk flight recorder (Telemetry.flight) is a drop-oldest ring
// that retains only *qualifying* completed traces — those whose latency
// exceeded the slow threshold (Telemetry.slowNS), or that took an
// anomalous path (a fall-back to the ref-walk lock, a coalesce wait past
// the threshold). Where the sampled trace ring answers "what do walks
// look like", the flight recorder answers "what did the bad ones look
// like" long after they scrolled out of the sample.

// defaultSlowNS is the out-of-the-box slow threshold: 1ms is an eternity
// for a warm walk (ns scale) yet short enough to catch real stalls on
// wire ops.
const defaultSlowNS = int64(time.Millisecond)

// offerSlow flight-records tr if it qualifies. tr must already be
// immutable (the callers push the same pointer into the sampled ring).
func (t *Telemetry) offerSlow(tr *WalkTrace) {
	if tr.Anomaly == "" && tr.DurNS < t.slowNS.Load() {
		return
	}
	t.flight.Append(tr)
}
