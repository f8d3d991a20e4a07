package coherence

import (
	"fmt"
	"sync"
	"testing"
)

// publish appends n records and returns the last ID.
func publish(l *Log, n int) uint64 {
	var id uint64
	for i := 0; i < n; i++ {
		id = l.Publish(fmt.Sprintf("/p%d", l.Head()+1), "t")
	}
	return id
}

func TestDenseIDs(t *testing.T) {
	l := newLog(8)
	if recs, next, fell := l.Since(0); recs != nil || next != 0 || fell {
		t.Fatalf("empty log: recs=%v next=%d fell=%v", recs, next, fell)
	}
	for want := uint64(1); want <= 20; want++ {
		if id := l.Publish("/x", "t"); id != want {
			t.Fatalf("Publish returned ID %d, want %d", id, want)
		}
		if l.Head() != want {
			t.Fatalf("Head() = %d after publishing %d", l.Head(), want)
		}
	}
}

// TestSinceEveryCursorAcrossWrap reads from every cursor a reader could
// hold, before and after the ring wraps and with the head in every slot:
// inside retention the read is exactly the records (cursor, head] in
// order with their own paths; outside it, fell-behind with nothing.
func TestSinceEveryCursorAcrossWrap(t *testing.T) {
	const n = 8
	l := newLog(n)
	for head := uint64(1); head <= 3*n; head++ {
		publish(l, 1)
		oldest := uint64(1)
		if head > n {
			oldest = head - n + 1
		}
		for cursor := uint64(0); cursor <= head; cursor++ {
			recs, next, fell := l.Since(cursor)
			if next != head {
				t.Fatalf("head %d cursor %d: next = %d", head, cursor, next)
			}
			if cursor+1 < oldest {
				if !fell || recs != nil {
					t.Fatalf("head %d cursor %d (oldest %d): fell=%v recs=%v, want fell-behind and no records",
						head, cursor, oldest, fell, recs)
				}
				continue
			}
			if fell || uint64(len(recs)) != head-cursor {
				t.Fatalf("head %d cursor %d: fell=%v, %d records, want %d", head, cursor, fell, len(recs), head-cursor)
			}
			for i, r := range recs {
				if want := cursor + 1 + uint64(i); r.ID != want || r.Path != fmt.Sprintf("/p%d", want) || r.Note != "t" {
					t.Fatalf("head %d cursor %d: record %d is %+v, want ID %d", head, cursor, i, r, want)
				}
			}
		}
	}
}

// TestFellBehindBoundary pins the rule: a reader whose next record
// (cursor+1) is the oldest retained one is caught up; one record further
// back it fell behind, and the returned cursor clears the gap, so the
// fallback is paid once and not on every poll.
func TestFellBehindBoundary(t *testing.T) {
	l := New()
	head := publish(l, Capacity+100)
	oldest := head - Capacity + 1

	recs, next, fell := l.Since(oldest - 1)
	if fell || len(recs) != Capacity || next != head {
		t.Fatalf("cursor oldest-1: fell=%v, %d records, next=%d", fell, len(recs), next)
	}
	if recs[0].ID != oldest {
		t.Fatalf("cursor oldest-1: first record %d, want the oldest retained %d", recs[0].ID, oldest)
	}
	recs, next, fell = l.Since(oldest - 2)
	if !fell || recs != nil || next != head {
		t.Fatalf("cursor oldest-2: fell=%v recs=%d next=%d, want fell-behind, nothing, %d", fell, len(recs), next, head)
	}
	if recs, again, fell := l.Since(next); fell || recs != nil || again != next {
		t.Fatalf("re-poll from the returned cursor: fell=%v recs=%d next=%d", fell, len(recs), again)
	}

	// A cursor this log never issued (a reader that outlived the log it
	// subscribed to) cannot be told what it missed either.
	if _, next, fell := l.Since(head + 1); !fell || next != head {
		t.Fatalf("cursor past head: fell=%v next=%d", fell, next)
	}
	// Pending follows the same rule: a count while Since would hand the
	// records over, the capacity wherever it would report fell-behind —
	// never head − cursor wrapped around.
	for cursor, want := range map[uint64]int{
		head: 0, head - 3: 3, oldest - 1: Capacity,
		oldest - 2: Capacity, 0: Capacity, head + 1: Capacity, ^uint64(0): Capacity,
	} {
		if got := l.Pending(cursor); got != want {
			t.Errorf("Pending(%d) = %d with head %d, want %d", cursor, got, head, want)
		}
	}
	var none *Log
	if none.Pending(0) != 0 {
		t.Error("a nil log has records pending")
	}
	if _, next, fell := none.Since(0); fell || next != 0 || none.Head() != 0 {
		t.Fatalf("nil log at cursor 0: fell=%v next=%d", fell, next)
	}
	if _, _, fell := none.Since(3); !fell {
		t.Fatal("nil log did not refuse a cursor it never issued")
	}
}

// TestConcurrentPublishers: 8 publishers against one polling reader (run
// under -race by make race). The reader stays inside retention, so it
// must see every ID exactly once, in order.
func TestConcurrentPublishers(t *testing.T) {
	const writers, each = 8, Capacity / 16
	l := New()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Publish(fmt.Sprintf("/w%d/%d", w, i), "t")
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var cursor uint64
	perWriter := map[string]int{}
	read := func() {
		recs, next, fell := l.Since(cursor)
		if fell {
			t.Fatalf("reader inside retention fell behind at cursor %d", cursor)
		}
		for _, r := range recs {
			if r.ID != cursor+1 {
				t.Fatalf("ID %d after %d", r.ID, cursor)
			}
			cursor = r.ID
			var w, i int
			if _, err := fmt.Sscanf(r.Path, "/w%d/%d", &w, &i); err != nil || i != perWriter[r.Path[:3]] {
				t.Fatalf("record %+v out of its writer's order (want index %d)", r, perWriter[r.Path[:3]])
			}
			perWriter[r.Path[:3]]++
		}
		if next != cursor {
			t.Fatalf("next = %d, last record %d", next, cursor)
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		read() // the pass after done sees everything published
	}
	if cursor != writers*each {
		t.Fatalf("saw %d records, want %d", cursor, writers*each)
	}
}

// TestCaughtUpSinceDoesNotAllocate is the count behind "a quiescent pump
// costs nothing": whatever the log holds, a reader at its head pays no
// allocation.
func TestCaughtUpSinceDoesNotAllocate(t *testing.T) {
	l := New()
	head := publish(l, Capacity+7)
	if n := testing.AllocsPerRun(100, func() {
		if recs, next, fell := l.Since(head); recs != nil || next != head || fell {
			t.Fatal("reader at head is not caught up")
		}
	}); n != 0 {
		t.Fatalf("caught-up Since allocates %v times per call", n)
	}
}
