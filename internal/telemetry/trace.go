package telemetry

import (
	"sync"
	"time"
)

// TraceEvent is one step of a sampled walk: a component resolved, a hash
// table probe, a negative-dentry answer, a seqlock retry, and so on.
type TraceEvent struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
	DurNS  int64  `json:"dur_ns,omitempty"`
}

// Event kinds recorded by the VFS and fastpath instrumentation.
const (
	EvComponent     = "component"      // slow walk resolved one component
	EvHashHit       = "hash_hit"       // baseline (parent,name) table hit
	EvNegative      = "negative"       // negative dentry answered the walk
	EvCompleteShort = "complete_short" // DIR_COMPLETE authoritative miss
	EvFSLookup      = "fs_lookup"      // miss consulted the low-level FS
	EvHydrate       = "hydrate"        // readdir stub filled via GetNode
	EvSymlink       = "symlink"        // symlink followed
	EvDotDot        = "dotdot"         // ".." step
	EvSeqRetry      = "seq_retry"      // optimistic walk retried
	EvRefWalk       = "refwalk"        // fell back to the ref-walk lock
	EvSlowWalk      = "slow_walk"      // entered the component-at-a-time path
	EvDLHTHit       = "dlht_hit"       // fastpath signature probe hit
	EvDLHTMiss      = "dlht_miss"      // fastpath signature probe missed
	EvPCCHit        = "pcc_hit"        // prefix check memoized
	EvPCCMiss       = "pcc_miss"       // prefix check not memoized/stale
	EvAlias         = "alias"          // symlink alias dentry hit
	EvFastAbort     = "fast_abort"     // fastpath bailed to the slow walk

	// Span event kinds added by the end-to-end tracing layer: stage
	// timings recorded below walkOnce and across the 9P wire.
	EvCoalesceWait = "coalesce_wait" // miss parked on a concurrent in-flight lookup
	EvWalkDone     = "walk"          // kernel walk summary inside a server span
	EvRPC          = "rpc"           // client-side wire round trip
)

// Anomaly kinds: a completed trace with a non-empty Anomaly is always
// retained by the flight recorder regardless of its latency.
const (
	AnomRefWalk      = "refwalk"       // optimistic walk fell back to the ref-walk lock
	AnomCoalesceWait = "coalesce_wait" // coalesced-miss wait exceeded the slow threshold
)

// WalkTrace is the recorded event sequence of one sampled walk — or, with
// a non-empty Origin, one span of an end-to-end trace that crosses the 9P
// wire. It is built by the walking goroutine alone and becomes immutable
// once pushed into the ring, so readers need no synchronization beyond
// the ring's.
type WalkTrace struct {
	ID       uint64       `json:"id"`
	Origin   string       `json:"origin,omitempty"` // "" in-process walk, "client" or "server" wire span
	Op       string       `json:"op,omitempty"`     // wire op for spans ("Twalk", "Tstat", ...)
	RemoteID uint64       `json:"remote_id,omitempty"`
	Path     string       `json:"path"`
	Start    time.Time    `json:"start"`
	DurNS    int64        `json:"dur_ns"`
	Outcome  string       `json:"outcome"` // "ok" or the errno text
	Fastpath bool         `json:"fastpath"`
	Anomaly  string       `json:"anomaly,omitempty"` // anomalous-path marker (flight recorder keeps these)
	Events   []TraceEvent `json:"events"`

	// scratch marks a per-Task reusable trace: FinishWalk pushes a
	// private copy and leaves this one to be reset by the next sample.
	scratch bool
	// ext marks an externally owned span (a 9P server dispatch): the
	// kernel walk annotates it but its owner finishes and pushes it.
	ext bool
}

// Event appends a step. Nil-safe so instrumentation sites can call it
// unconditionally on the (usually nil) trace pointer.
func (tr *WalkTrace) Event(kind, detail string) {
	if tr == nil {
		return
	}
	tr.Events = append(tr.Events, TraceEvent{Kind: kind, Detail: detail})
}

// EventDur appends a step with its measured duration.
func (tr *WalkTrace) EventDur(kind, detail string, d time.Duration) {
	if tr == nil {
		return
	}
	tr.Events = append(tr.Events, TraceEvent{Kind: kind, Detail: detail, DurNS: d.Nanoseconds()})
}

// SetAnomaly marks the trace as having taken an anomalous path (the
// first marker wins). Nil-safe like Event.
func (tr *WalkTrace) SetAnomaly(kind string) {
	if tr == nil || tr.Anomaly != "" {
		return
	}
	tr.Anomaly = kind
}

// reset rearms a scratch trace for a new sample, keeping the Events
// backing array so steady-state sampled walks stop allocating.
func (tr *WalkTrace) reset(id uint64, path string) {
	ev := tr.Events[:0]
	*tr = WalkTrace{ID: id, Path: path, Start: time.Now(), Events: ev, scratch: true}
}

// clone returns a private immutable copy (pushed into rings in place of
// a scratch trace, which its Task will reuse).
func (tr *WalkTrace) clone() *WalkTrace {
	c := *tr
	c.scratch = false
	c.ext = false
	c.Events = append([]TraceEvent(nil), tr.Events...)
	return &c
}

// traceRing is a fixed-size drop-oldest buffer of completed traces.
// Completed traces arrive at the trace sampling rate (1-in-N walks), so a
// mutex here is far off the hot path.
type traceRing struct {
	mu    sync.Mutex
	buf   []*WalkTrace // fixed capacity; slot = total % len(buf)
	total uint64       // traces ever pushed; excess over len(buf) were dropped
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{buf: make([]*WalkTrace, capacity)}
}

// push stores tr, overwriting the oldest trace once the ring is full.
func (r *traceRing) push(tr *WalkTrace) {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = tr
	r.total++
	r.mu.Unlock()
}

// dump returns the retained traces, oldest first, plus the count of
// traces dropped to make room.
func (r *traceRing) dump() (traces []*WalkTrace, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.total <= n {
		return append([]*WalkTrace(nil), r.buf[:r.total]...), 0
	}
	traces = make([]*WalkTrace, 0, n)
	start := r.total % n
	traces = append(traces, r.buf[start:]...)
	traces = append(traces, r.buf[:start]...)
	return traces, r.total - n
}

// count returns how many traces are retained.
func (r *traceRing) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// dropped returns how many traces the ring has overwritten. Unlike dump
// it takes no copies, so the exporter can surface the drop count as a
// cheap gauge instead of silently losing sampled traces under storm load.
func (r *traceRing) dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := uint64(len(r.buf)); r.total > n {
		return r.total - n
	}
	return 0
}
