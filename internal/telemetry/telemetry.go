// Package telemetry is the directory cache's observability subsystem:
// lock-free striped latency histograms for each lookup cost center, a
// sampled per-walk trace ring, and an exporter that serves both (plus any
// registered counter sources) in Prometheus text format and JSON.
//
// The contract with the hot path mirrors the paper's "measurement must
// not perturb the measured system" discipline: a disabled Telemetry costs
// the VFS a single atomic pointer load and branch per walk (the kernel
// detaches the pointer entirely), and an enabled one records through
// striped, cache-line-padded cells (internal/stripe) so concurrent
// walkers never contend on a shared counter line. Traces are sampled
// 1-in-N and assembled privately by the walking goroutine; only the final
// push into the ring takes a (cold) mutex.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// HistID names one latency histogram.
type HistID int

// The cost centers instrumented across the VFS and fastpath.
const (
	// HistWalk is end-to-end Walk latency (fast or slow, success or not).
	// It, HistFastpath, HistSlowpath and HistPCC hold the timed walks:
	// one in eight and every traced one (vfs.WalkTimed).
	HistWalk HistID = iota
	// HistFastpath is the latency of walks answered by TryFast.
	HistFastpath
	// HistSlowpath is the latency of the component-at-a-time walk
	// (including retries and the ref-walk fallback).
	HistSlowpath
	// HistFSLookup is the latency of low-level FS Lookup calls on a miss.
	HistFSLookup
	// HistPCC is the latency of the fastpath's final PCC authorization
	// probe.
	HistPCC
	// HistPCCResize is the latency of a PCC generation copy (rare).
	HistPCCResize
	// HistEvict is the latency of one victim selection by the shrinker's
	// clock hand: the slab slots it stepped over plus the claims.
	HistEvict

	// The mutation-side cost centers: how long coherence work takes, the
	// write-path mirror of the read-path histograms above. These time the
	// recursive seq-bump + DLHT shootdown of §3.2 by reason, and the
	// individual DLHT chain-rebuild removals underneath it.

	// HistRenameInval is the subtree invalidation latency of renames
	// (and mount-topology changes, which use the same envelope).
	HistRenameInval
	// HistChmodBump is the subtree seq-bump latency of permission
	// changes (chmod/chown/label).
	HistChmodBump
	// HistUnlinkInval is the (non-recursive) invalidation latency of
	// unlink/rmdir.
	HistUnlinkInval
	// HistDLHTRemove is the latency of one DLHT entry removal (bucket
	// chain rebuild).
	HistDLHTRemove
	// HistMissWait is how long a coalesced slow-path miss blocked on a
	// concurrent walk's in-flight backend Lookup for the same component
	// (the singleflight wait replacing a duplicate round trip).
	HistMissWait

	// The 9P server's per-op cost centers (internal/ninep): end-to-end
	// handling latency of each request class, from a parsed T-message to
	// its queued R-message. ServeWalk is the wire mirror of HistWalk —
	// one Twalk is one multi-component kernel walk plus qid assembly.

	// HistServeAttach times Tversion/Tauth/Tattach handling (identity
	// resolution and process-pool checkout included).
	HistServeAttach
	// HistServeWalk times Twalk handling.
	HistServeWalk
	// HistServeOpen times Topen/Tcreate handling.
	HistServeOpen
	// HistServeRead times Tread/Twrite handling (directory reads
	// included).
	HistServeRead
	// HistServeStat times Tstat/Twstat handling.
	HistServeStat
	// HistServeClunk times Tclunk/Tremove/Tflush handling.
	HistServeClunk

	NumHistograms
)

var histNames = [NumHistograms]string{
	"walk", "fastpath", "slowpath", "fs_lookup", "pcc_probe", "pcc_resize", "evict",
	"rename_invalidate", "chmod_seq_bump", "unlink_invalidate", "dlht_remove",
	"miss_wait",
	"ninep_attach", "ninep_walk", "ninep_open", "ninep_read", "ninep_stat", "ninep_clunk",
}

var histHelp = [NumHistograms]string{
	"end-to-end path walk latency",
	"latency of walks answered by the whole-path fastpath",
	"latency of component-at-a-time slow walks",
	"latency of low-level FS lookup calls",
	"latency of the fastpath PCC authorization probe",
	"latency of PCC table growth (generation copy)",
	"latency of one victim selection by the shrinker's clock hand",
	"subtree invalidation latency of rename/mount mutations",
	"subtree seq-bump latency of chmod/chown/label mutations",
	"invalidation latency of unlink/rmdir mutations",
	"latency of one DLHT entry removal",
	"wait of a coalesced miss on a concurrent in-flight lookup",
	"9P server Tversion/Tauth/Tattach handling latency",
	"9P server Twalk handling latency",
	"9P server Topen/Tcreate handling latency",
	"9P server Tread/Twrite handling latency",
	"9P server Tstat/Twstat handling latency",
	"9P server Tclunk/Tremove/Tflush handling latency",
}

// Name returns the histogram's exporter name.
func (id HistID) Name() string { return histNames[id] }

// HistIDByName resolves an exporter name back to its ID.
func HistIDByName(name string) (HistID, bool) {
	for i, n := range histNames {
		if n == name {
			return HistID(i), true
		}
	}
	return 0, false
}

// Options configures a Telemetry instance.
type Options struct {
	// TraceSample records the full event sequence of 1-in-N walks.
	// 0 disables tracing; 1 traces every walk.
	TraceSample int
	// SlowNS is the default flight-recorder slow threshold in
	// nanoseconds (0 = 1ms); per-op overrides via SetSlowThreshold.
	SlowNS int64
}

// Ring capacities: the trace ring and the slow-walk flight recorder each
// keep traceSlots traces, the coherence event journal journalSlots events
// split across its stripes. All three drop oldest.
const (
	traceSlots   = 256
	journalSlots = 4096
)

// Telemetry owns the histograms, the trace ring, and the registered
// counter sources. All methods are safe for concurrent use; Record and On
// are additionally nil-safe so callers can keep a possibly-nil pointer.
type Telemetry struct {
	enabled atomic.Bool
	sampleN atomic.Int64
	walkSeq atomic.Uint64 // sampling counter
	traceID atomic.Uint64

	hists   [NumHistograms]Histogram
	ring    *traceRing
	flight  *flightRecorder
	journal *Journal

	statsMu sync.Mutex
	stats   map[string]func() map[string]int64
}

// New builds a Telemetry (initially disabled — call Enable).
func New(o Options) *Telemetry {
	t := &Telemetry{
		ring:    newTraceRing(traceSlots),
		flight:  newFlightRecorder(traceSlots, o.SlowNS),
		journal: newJournal(journalSlots),
		stats:   make(map[string]func() map[string]int64),
	}
	t.sampleN.Store(int64(o.TraceSample))
	return t
}

// Enable turns recording on.
func (t *Telemetry) Enable() { t.enabled.Store(true) }

// Disable turns recording off. Attached kernels additionally detach the
// pointer so the walk hot path pays only the nil check.
func (t *Telemetry) Disable() { t.enabled.Store(false) }

// On reports whether recording is active. Nil-safe.
func (t *Telemetry) On() bool { return t != nil && t.enabled.Load() }

// SetTraceSample changes the 1-in-N trace sampling rate (0 disables).
func (t *Telemetry) SetTraceSample(n int) { t.sampleN.Store(int64(n)) }

// Record adds one latency observation to the histogram.
func (t *Telemetry) Record(id HistID, d time.Duration) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.hists[id].Record(d)
}

// RecordEx is Record plus a bucket exemplar: the observation's bucket
// remembers traceID (0 = no trace, plain Record).
func (t *Telemetry) RecordEx(id HistID, d time.Duration, traceID uint64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.hists[id].RecordEx(d, traceID)
}

// Sampled reports whether the next walk falls in the 1-in-N sample,
// advancing the sampling counter. Callers that pass only decide where
// the trace lives (per-Task scratch or a fresh allocation) and call
// StartWalk.
func (t *Telemetry) Sampled() bool {
	n := t.sampleN.Load()
	if n <= 0 {
		return false
	}
	return n == 1 || t.walkSeq.Add(1)%uint64(n) == 0
}

// StartWalk begins a sampled walk trace in the caller-owned scratch —
// reset in place (fresh ID, retained Events capacity) so the walk path
// allocates nothing; FinishWalk pushes a private copy and leaves the
// scratch reusable. A nil scratch falls back to a fresh allocation.
func (t *Telemetry) StartWalk(scratch *WalkTrace, path string) *WalkTrace {
	if scratch == nil {
		return &WalkTrace{ID: t.traceID.Add(1), Path: path, Start: time.Now()}
	}
	scratch.reset(t.traceID.Add(1), path)
	return scratch
}

// StartSpan opens an externally owned span of an end-to-end trace: a 9P
// server dispatch (origin "server") or client RPC (origin "client")
// correlated across the wire by remoteID. The kernel walk annotates a
// server span in place (FinishWalk sees ext and appends a summary
// instead of pushing); the owner completes it with FinishSpan. Returns
// nil when recording is off.
func (t *Telemetry) StartSpan(origin, op, path string, remoteID uint64) *WalkTrace {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &WalkTrace{
		ID: t.traceID.Add(1), Origin: origin, Op: op, Path: path,
		RemoteID: remoteID, Start: time.Now(), ext: true,
	}
}

// NextTraceID allocates a wire trace ID (the client side of StartSpan
// stamps it on the outgoing T-message before the span exists).
func (t *Telemetry) NextTraceID() uint64 {
	if t == nil || !t.enabled.Load() {
		return 0
	}
	return t.traceID.Add(1)
}

// FinishSpan completes a span from StartSpan (nil-safe) and pushes it
// into the trace ring and, if it qualifies, the flight recorder.
func (t *Telemetry) FinishSpan(tr *WalkTrace, err error, d time.Duration) {
	if tr == nil {
		return
	}
	tr.DurNS = d.Nanoseconds()
	if err == nil {
		tr.Outcome = "ok"
	} else {
		tr.Outcome = err.Error()
	}
	tr.ext = false
	t.ring.push(tr)
	t.flight.offer(tr)
}

// FinishWalk completes tr (nil-safe). A plain sampled trace is pushed
// into the ring (a scratch trace as a private copy) and offered to the
// flight recorder; an externally owned span only gains a kernel-walk
// summary event — its owner pushes it via FinishSpan.
func (t *Telemetry) FinishWalk(tr *WalkTrace, fastpath bool, err error, d time.Duration) {
	if tr == nil {
		return
	}
	tr.Fastpath = fastpath
	if tr.ext {
		tr.Events = append(tr.Events, TraceEvent{Kind: EvWalkDone, Detail: outcomeText(err), DurNS: d.Nanoseconds()})
		return
	}
	tr.DurNS = d.Nanoseconds()
	tr.Outcome = outcomeText(err)
	if tr.scratch {
		tr = tr.clone()
	}
	t.ring.push(tr)
	t.flight.offer(tr)
}

func outcomeText(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// SetSlowThreshold changes the flight recorder's slow threshold for one
// op ("" = the default used by ops without an override and by in-process
// kernel walks).
func (t *Telemetry) SetSlowThreshold(op string, d time.Duration) {
	t.flight.setThreshold(op, d.Nanoseconds())
}

// SlowThreshold returns the flight recorder's slow threshold for op.
func (t *Telemetry) SlowThreshold(op string) time.Duration {
	return time.Duration(t.flight.threshold(op))
}

// SlowTraces returns the flight recorder's retained traces (oldest
// first) and how many qualifying traces were dropped to make room.
func (t *Telemetry) SlowTraces() ([]*WalkTrace, uint64) { return t.flight.ring.dump() }

// SlowCount returns how many traces the flight recorder retains.
func (t *Telemetry) SlowCount() int { return t.flight.ring.count() }

// Snapshot returns merged copies of every histogram.
func (t *Telemetry) Snapshot() []HistSnapshot {
	out := make([]HistSnapshot, NumHistograms)
	for i := range out {
		out[i] = t.hists[i].Snapshot()
		out[i].Name = histNames[i]
	}
	return out
}

// SnapshotHist returns one histogram's merged snapshot.
func (t *Telemetry) SnapshotHist(id HistID) HistSnapshot {
	s := t.hists[id].Snapshot()
	s.Name = histNames[id]
	return s
}

// ResetHistograms zeroes every histogram (measurement windowing; see
// Histogram.Reset for the concurrency caveat).
func (t *Telemetry) ResetHistograms() {
	for i := range t.hists {
		t.hists[i].Reset()
	}
}

// Emit records one coherence event in the journal. Nil-safe and gated on
// Enable like Record, so mutation paths can call it unconditionally on a
// possibly-nil pointer.
func (t *Telemetry) Emit(kind JournalKind, ref uint64, aux int64, note Note) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.journal.emit(kind, ref, aux, note)
}

// Events returns the retained journal events merged into ID order, plus
// how many were dropped to make room.
func (t *Telemetry) Events() ([]Event, uint64) { return t.journal.dump() }

// EventCounts returns how many events have been emitted per kind (the
// counts include events since dropped from the ring) and the total.
func (t *Telemetry) EventCounts() (perKind [NumJournalKinds]uint64, total uint64) {
	return t.journal.countsSnapshot()
}

// EventsDropped returns how many journal events have been dropped.
func (t *Telemetry) EventsDropped() uint64 { return t.journal.droppedCount() }

// Traces returns the retained traces (oldest first) and how many were
// dropped by the ring.
func (t *Telemetry) Traces() ([]*WalkTrace, uint64) { return t.ring.dump() }

// TraceCount returns how many traces the ring currently retains.
func (t *Telemetry) TraceCount() int { return t.ring.count() }

// TracesDropped returns how many sampled traces the ring has overwritten
// — the drop counter the exporter surfaces so storm load no longer loses
// traces silently.
func (t *Telemetry) TracesDropped() uint64 { return t.ring.dropped() }

// SlowDropped returns how many qualifying traces the flight recorder has
// overwritten.
func (t *Telemetry) SlowDropped() uint64 { return t.flight.ring.dropped() }

// RegisterStats adds a named counter source the exporter will include
// (e.g. a System's CacheStats). Re-registering a source replaces it.
func (t *Telemetry) RegisterStats(source string, fn func() map[string]int64) {
	t.statsMu.Lock()
	t.stats[source] = fn
	t.statsMu.Unlock()
}

// UnregisterStats removes a counter source.
func (t *Telemetry) UnregisterStats(source string) {
	t.statsMu.Lock()
	delete(t.stats, source)
	t.statsMu.Unlock()
}

// statsSnapshot evaluates every registered source.
func (t *Telemetry) statsSnapshot() map[string]map[string]int64 {
	t.statsMu.Lock()
	fns := make(map[string]func() map[string]int64, len(t.stats))
	for k, v := range t.stats {
		fns[k] = v
	}
	t.statsMu.Unlock()
	out := make(map[string]map[string]int64, len(fns))
	for k, fn := range fns {
		out[k] = fn()
	}
	return out
}

// defaultTel is the process-wide instance: commands like dcbench install
// one so that every System their experiments construct feeds a single
// live exporter without threading a pointer through each config.
var defaultTel atomic.Pointer[Telemetry]

// SetDefault installs (or, with nil, clears) the process-wide default.
func SetDefault(t *Telemetry) { defaultTel.Store(t) }

// Default returns the process-wide default, or nil.
func Default() *Telemetry { return defaultTel.Load() }
