package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"dircache/internal/ringlog"
)

// TestFlightRecorderQualification pins the admission rule: a completed
// trace is flight-recorded iff it crossed the slow threshold or
// took an anomalous path.
func TestFlightRecorderQualification(t *testing.T) {
	tel := New(Options{TraceSample: 1, SlowNS: int64(time.Millisecond)})

	fast := tel.StartWalk("/fast")
	tel.FinishWalk(fast, true, nil, 10*time.Microsecond)
	if n := tel.SlowCount(); n != 0 {
		t.Fatalf("fast clean walk flight-recorded: %d retained", n)
	}

	slow := tel.StartWalk("/slow")
	tel.FinishWalk(slow, false, nil, 5*time.Millisecond)
	if n := tel.SlowCount(); n != 1 {
		t.Fatalf("slow walk not flight-recorded: %d retained", n)
	}

	anom := tel.StartWalk("/anomalous")
	anom.SetAnomaly(AnomRefWalk)
	tel.FinishWalk(anom, false, nil, 10*time.Microsecond)
	if n := tel.SlowCount(); n != 2 {
		t.Fatalf("fast anomalous walk not flight-recorded: %d retained", n)
	}

	// A 2ms wire span is slow at 1ms, fine once the threshold is raised.
	tel.SetSlowThreshold(10 * time.Millisecond)
	sp := tel.StartSpan("server", "Twalk", "/x", 1)
	tel.FinishSpan(sp, nil, 2*time.Millisecond)
	if n := tel.SlowCount(); n != 2 {
		t.Fatalf("span under the raised threshold flight-recorded: %d retained", n)
	}
}

// TestFlightRecorderWraparoundReportsDrops overfills the flight ring and
// requires drop-oldest behaviour plus an accurate drop counter — storm
// load must not lose traces silently.
func TestFlightRecorderWraparoundReportsDrops(t *testing.T) {
	tel := New(Options{TraceSample: 1, SlowNS: 1})
	tel.flight = ringlog.New[*WalkTrace](8, nil)
	for i := 0; i < 24; i++ {
		tr := tel.StartWalk(fmt.Sprintf("/w%d", i))
		tel.FinishWalk(tr, false, nil, time.Millisecond)
	}
	traces, dropped := tel.SlowTraces()
	if len(traces) != 8 {
		t.Fatalf("retained %d traces, want 8", len(traces))
	}
	if dropped != 16 {
		t.Fatalf("dropped counter %d, want 16", dropped)
	}
	if tel.SlowDropped() != 16 {
		t.Fatalf("SlowDropped %d, want 16", tel.SlowDropped())
	}
	// Oldest dropped first: the survivors are the 8 newest.
	if traces[0].Path != "/w16" || traces[7].Path != "/w23" {
		t.Fatalf("wrong survivors: %s .. %s", traces[0].Path, traces[7].Path)
	}
	// The drop counters surface through both exporters.
	doc := struct {
		SlowDrop uint64 `json:"slow_traces_dropped"`
	}{}
	if err := json.Unmarshal(tel.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SlowDrop != 16 {
		t.Fatalf("metrics.json slow_traces_dropped = %d, want 16", doc.SlowDrop)
	}
}

// TestTraceRingDropCounter does the same for the sampled trace ring.
func TestTraceRingDropCounter(t *testing.T) {
	tel := New(Options{TraceSample: 1})
	tel.ring = ringlog.New[*WalkTrace](4, nil)
	for i := 0; i < 10; i++ {
		tr := tel.StartWalk("/p")
		tel.FinishWalk(tr, true, nil, time.Microsecond)
	}
	if got := tel.TracesDropped(); got != 6 {
		t.Fatalf("TracesDropped = %d, want 6", got)
	}
}

// TestConcurrentScrapesRaceSpanCompletion hammers every exporter while
// walks, wire spans, and flight-recorder eviction are all in flight, and
// moves the slow threshold under the writers' offers.
// Run under -race; correctness here is "no race, no panic, rings stay
// bounded".
func TestConcurrentScrapesRaceSpanCompletion(t *testing.T) {
	tel := New(Options{TraceSample: 1, SlowNS: 1})
	tel.ring, tel.flight = ringlog.New[*WalkTrace](16, nil), ringlog.New[*WalkTrace](8, nil)

	const writers, scrapes = 4, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// In-process walk.
				tr := tel.StartWalk(fmt.Sprintf("/g%d/%d", w, i))
				tr.Event(EvDLHTHit, "probe")
				tr.EventDur(EvCoalesceWait, "c", time.Microsecond)
				if i%3 == 0 {
					tr.SetAnomaly(AnomRefWalk)
				}
				tel.RecordEx(HistWalk, time.Duration(i%2000)*time.Microsecond, tr.ID)
				tel.FinishWalk(tr, i%2 == 0, nil, time.Duration(i%2000)*time.Microsecond)
				// Wire span pair sharing one wire id.
				wid := tel.NextTraceID()
				cl := tel.StartSpan("client", "Twalk", "/g", wid)
				sv := tel.StartSpan("server", "Twalk", "/g", wid)
				sv.Event(EvFSLookup, "x")
				tel.FinishSpan(sv, nil, time.Millisecond)
				tel.FinishSpan(cl, nil, 2*time.Millisecond)
			}
		}(w)
	}

	for i := 0; i < scrapes; i++ {
		tel.SetSlowThreshold(time.Duration(i%2) * time.Millisecond)
		tel.WritePrometheus(io.Discard)
		_ = tel.MetricsJSON()
		_ = tel.TracesJSON()
		_ = tel.SlowJSON()
		traces, _ := tel.SlowTraces()
		if len(traces) > 8 {
			t.Errorf("flight ring overflowed: %d retained", len(traces))
		}
		_ = StitchTraces(traces)
	}
	close(stop)
	wg.Wait()

	if tel.TraceCount() > 16 {
		t.Fatalf("trace ring overflowed: %d", tel.TraceCount())
	}
	var doc struct {
		TracesDrop uint64 `json:"traces_dropped"`
	}
	if err := json.Unmarshal(tel.MetricsJSON(), &doc); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileExemplar pins the exemplar path: RecordEx remembers the
// latest trace id per bucket, and QuantileExemplar hands back a trace
// near the requested quantile.
func TestQuantileExemplar(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Record(time.Microsecond) // untraced bulk: no exemplars
	}
	h.RecordEx(50*time.Millisecond, 777) // the one slow, traced outlier
	s := h.Snapshot()
	if got := s.QuantileExemplar(0.99); got != 777 {
		t.Fatalf("p99 exemplar = %d, want 777", got)
	}
	// With no traced observation at all, no exemplar is fabricated.
	var h2 Histogram
	h2.Record(time.Millisecond)
	s2 := h2.Snapshot()
	if got := s2.QuantileExemplar(0.99); got != 0 {
		t.Fatalf("exemplar fabricated: %d", got)
	}
}
