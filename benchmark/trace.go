package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the tracer started. parent is the
// id of the span that caused it (0 for an op's root span); spans of one op
// share opID.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	OpID   uint32 `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds what one worker keeps in memory (about 25 MB).
const maxSpans = 1 << 19

// tracer records one worker's spans in memory. A nil tracer records
// nothing, so executors call it unconditionally.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
	opID    uint32
	worker  uint32
}

func newTracer(worker int, t0 time.Time) *tracer {
	return &tracer{t0: t0, worker: uint32(worker), spans: make([]span, 0, 1<<16)}
}

// beginOp opens the root span of a new op.
func (t *tracer) beginOp() uint32 {
	if t == nil {
		return 0
	}
	t.opID++
	return t.begin("op", 0)
}

// begin opens a span and returns its id, 0 when nothing is recorded.
func (t *tracer) begin(name string, parent uint32) uint32 {
	if t == nil {
		return 0
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	// Ids are dense per worker; the worker number in the top bits keeps
	// them distinct once the workers' spans are merged.
	id := t.worker<<28 | uint32(len(t.spans)+1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: t.worker<<28 | t.opID, Name: name,
		Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id uint32) {
	if id == 0 {
		return
	}
	t.spans[id&(1<<28-1)-1].End = int64(time.Since(t.t0))
}

// layerTime sums one span name over a trace.
type layerTime struct {
	Count    int     `json:"count"`
	TotalUS  float64 `json:"total_us"`
	SelfUS   float64 `json:"self_us"`
	MedianUS float64 `json:"median_us"`
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover (overlapping children count
// once).
func selfTimes(spans []span) map[uint32]int64 {
	children := map[uint32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cover, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				cover += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - cover
	}
	return self
}

// byLayer folds a trace into one row per span name.
func byLayer(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalUS += float64(s.End-s.Start) / 1e3
		lt.SelfUS += float64(self[s.ID]) / 1e3
		out[s.Name] = lt
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
	}
	for name, lt := range out {
		lt.MedianUS = median(durs[name])
		out[name] = lt
	}
	return out
}
