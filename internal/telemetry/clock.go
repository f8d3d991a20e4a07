package telemetry

import "time"

// The package clock. Every timestamp and duration taken on a path that
// runs with telemetry on — journal events, walk and mutation histograms —
// comes from Now, which reads the monotonic clock once. time.Now reads the
// wall clock as well, twice the cost on hosts where a clock read is a
// vDSO call (DESIGN §6).
var (
	clockBase   = time.Now()
	clockBaseNS = clockBase.UnixNano()
)

// Now is the current time in unix nanoseconds, derived from the monotonic
// clock: the wall time when the package was initialized plus the monotonic
// time since. It never steps backwards; it drifts from the wall clock by
// whatever the wall clock has been adjusted since start-up.
func Now() int64 { return clockBaseNS + int64(time.Since(clockBase)) }

// Since is the time elapsed since start, a reading of Now.
func Since(start int64) time.Duration { return time.Duration(Now() - start) }
