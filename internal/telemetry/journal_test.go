package telemetry

import (
	"sync"
	"testing"

	"dircache/internal/stripe"
)

// TestJournalPerSubjectSuffix pins the property the auditor's journal
// cross-checks stand on: whatever a stripe drops, what is retained about
// one subject is the newest events about it, in emission order — through
// the block, the copy-out and the ring's wraparound, with two writers and
// four subjects to a stripe under the race detector. It also pins the dump's
// accounting: retained + dropped is everything emitted, and IDs are dense
// up to that total.
func TestJournalPerSubjectSuffix(t *testing.T) {
	const (
		writers  = 2 * stripe.Stripes
		perW     = 700 // two subjects per writer, 350 events each
		capacity = stripe.Stripes * 4 * blockSlots
	)
	j := newJournal(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stripes divides writers: this writer's two subjects, w and
			// w+writers, share a stripe with writer w±Stripes's two.
			for i := 0; i < perW; i++ {
				ref := uint64(w + writers*(i&1))
				j.emit(JournalKind(i%int(NumJournalKinds)), ref, int64(i), NoteNone)
			}
		}(w)
	}
	wg.Wait()

	events, dropped := j.dump()
	if got := uint64(len(events)) + dropped; got != writers*perW {
		t.Fatalf("retained %d + dropped %d = %d, emitted %d", len(events), dropped, got, writers*perW)
	}
	if dropped == 0 || j.droppedCount() != dropped {
		t.Fatalf("dropped = %d (droppedCount %d): the rings were meant to wrap", dropped, j.droppedCount())
	}
	if len(events) < capacity {
		t.Fatalf("retained %d events, capacity %d", len(events), capacity)
	}
	last := map[uint64]int64{}
	for i, ev := range events {
		if ev.ID != dropped+uint64(i)+1 {
			t.Fatalf("event %d has ID %d, want %d", i, ev.ID, dropped+uint64(i)+1)
		}
		if prev, ok := last[ev.Ref]; ok && ev.Aux != prev+2 {
			t.Fatalf("subject %d: event aux %d follows %d — not a contiguous, ordered run", ev.Ref, ev.Aux, prev)
		}
		last[ev.Ref] = ev.Aux
	}
	for ref, aux := range last {
		// The newest event about each subject is the last one its writer
		// emitted: i = perW-2 for the even subject, perW-1 for the odd.
		want := int64(perW - 2)
		if ref >= writers {
			want = perW - 1
		}
		if aux != want {
			t.Errorf("subject %d: newest retained event is #%d, want #%d (a newer one was dropped)", ref, aux, want)
		}
	}
	perKind, total := j.countsSnapshot()
	var sum uint64
	for _, n := range perKind {
		sum += n
	}
	if total != writers*perW || sum != total {
		t.Errorf("countsSnapshot: total %d, per-kind sum %d, emitted %d", total, sum, writers*perW)
	}
}

// TestJournalStripeGrowth follows one stripe from empty through every
// doubling of its ring to full and past the wrap. After each event: the
// ring is as long as the blocks flushed so far need (from one block,
// doubling, up to the stripe's capacity) and drops nothing until it is
// full, retained + dropped is everything emitted, and what is retained
// about each of three subjects sharing the stripe is the newest run of its
// events, in order.
func TestJournalStripeGrowth(t *testing.T) {
	const per = 4 * blockSlots
	j := newJournal(per * stripe.Stripes)
	s := &j.stripes[0]
	if j.per != per || s.ring != nil {
		t.Fatalf("fresh journal: per %d, stripe ring %d slots", j.per, len(s.ring))
	}
	subjects := []uint64{0, stripe.Stripes, 2 * stripe.Stripes} // one stripe
	for i := 1; i <= 3*per; i++ {
		j.emit(JDLHTInsert, subjects[i%len(subjects)], int64(i), NoteNone)
		flushed := i &^ (blockSlots - 1)
		want := 0
		for want < flushed {
			want = max(2*want, blockSlots)
		}
		want = min(want, per)
		if len(s.ring) != want {
			t.Fatalf("after %d events the ring has %d slots, want %d", i, len(s.ring), want)
		}
		events, dropped := j.dump()
		if wantDropped := max(flushed-per, 0); dropped != uint64(wantDropped) || len(events)+int(dropped) != i {
			t.Fatalf("after %d events: %d retained, %d dropped, want %d dropped", i, len(events), dropped, wantDropped)
		}
		last := map[uint64]int64{}
		for _, ev := range events {
			if prev, ok := last[ev.Ref]; ok && ev.Aux != prev+int64(len(subjects)) {
				t.Fatalf("after %d events: subject %d's event %d follows %d", i, ev.Ref, ev.Aux, prev)
			}
			last[ev.Ref] = ev.Aux
		}
		for k := 0; k < len(subjects) && k < i; k++ {
			if newest := int64(i - k); last[subjects[newest%int64(len(subjects))]] != newest {
				t.Fatalf("after %d events: event %d, the newest about its subject, is not retained", i, newest)
			}
		}
	}
}

// TestJournalDumpRendering: the dump names what the ring stores as a byte,
// tells a mutation's closing epoch bump from its opening one by NoteEnd —
// not by the epoch's parity, which overlapping mutations share — and
// orders stripes by time.
func TestJournalDumpRendering(t *testing.T) {
	j := newJournal(journalSlots)
	j.emit(JEpochBump, 7, 2<<16|2, NotePerm) // a second mutation opens
	j.emit(JSeqBump, 7, 3, NotePerm)
	j.emit(JDLHTRemove, 12, 9, NoteLazyShootdown)    // another stripe
	j.emit(JEpochBump, 7, 3<<16|1, NotePerm|NoteEnd) // it closes; the first is still open
	events, dropped := j.dump()
	if dropped != 0 || len(events) != 4 {
		t.Fatalf("dump: %d events, %d dropped", len(events), dropped)
	}
	want := []struct {
		kind JournalKind
		ref  uint64
		note string
	}{{JEpochBump, 7, "perm"}, {JSeqBump, 7, "perm"}, {JDLHTRemove, 12, "lazy-shootdown"}, {JEpochBump, 7, "perm-end"}}
	for i, w := range want {
		ev := events[i]
		if ev.Kind != w.kind || ev.Ref != w.ref || ev.Note != w.note || ev.ID != uint64(i+1) {
			t.Errorf("event %d = %+v, want kind %v ref %d note %q id %d", i, ev, w.kind, w.ref, w.note, i+1)
		}
		if i > 0 && ev.TimeNS < events[i-1].TimeNS {
			t.Errorf("event %d is stamped before event %d", i, i-1)
		}
	}
	for n := Note(0); n < numNotes; n++ {
		if n != NoteNone && n.String() == "" {
			t.Errorf("note %d has no name", n)
		}
	}
}

// TestNowIsMonotonic: the package clock never steps back, and Since reads
// it.
func TestNowIsMonotonic(t *testing.T) {
	prev := Now()
	if prev < clockBaseNS {
		t.Fatalf("Now() = %d precedes the package's own start %d", prev, clockBaseNS)
	}
	for i := 0; i < 1000; i++ {
		cur := Now()
		if cur < prev {
			t.Fatalf("Now stepped back: %d after %d", cur, prev)
		}
		prev = cur
	}
	if d := Since(prev); d < 0 {
		t.Fatalf("Since = %v", d)
	}
}

// TestJournalEmitZeroAlloc: leaving telemetry on must not put an
// allocation on any mutation. A stripe's ring allocates only when it
// doubles — six times in a default journal's life — so the whole-number
// per-event average AllocsPerRun reports is zero from the first event.
func TestJournalEmitZeroAlloc(t *testing.T) {
	tel := New(Options{})
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		tel.Emit(JDLHTInsert, uint64(i), int64(i), NoteNth)
		i++
	}); avg != 0 {
		t.Fatalf("Emit allocates %.1f per event", avg)
	}
}

// BenchmarkJournalEmit prices one event into a warm journal (DESIGN §6);
// BenchmarkClockNow is the part of it that is the clock.
func BenchmarkJournalEmit(b *testing.B) {
	j := newJournal(journalSlots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.emit(JournalKind(i%int(NumJournalKinds)), uint64(i)*7, int64(i), NotePerm)
	}
}

var clockSink int64

func BenchmarkClockNow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clockSink = Now()
	}
}
