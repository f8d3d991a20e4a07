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
		id = l.Append(Record{Path: fmt.Sprintf("/p%d", l.Head()+1), Note: "t"})
	}
	return id
}

// TestDenseIDs: every record is stamped with its sequence number as its
// ID, the number a reader's cursor counts in.
func TestDenseIDs(t *testing.T) {
	l := New()
	if recs, next, fell := l.Since(0); recs != nil || next != 0 || fell {
		t.Fatalf("empty log: recs=%v next=%d fell=%v", recs, next, fell)
	}
	for want := uint64(1); want <= 20; want++ {
		if id := l.Append(Record{Path: "/x", Note: "t"}); id != want {
			t.Fatalf("Append returned ID %d, want %d", id, want)
		}
		if recs, _, _ := l.Since(want - 1); len(recs) != 1 || recs[0].ID != want {
			t.Fatalf("record %d reads back as %+v", want, recs)
		}
		if l.Head() != want {
			t.Fatalf("Head() = %d after publishing %d", l.Head(), want)
		}
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
				l.Append(Record{Path: fmt.Sprintf("/w%d/%d", w, i), Note: "t"})
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

// TestPendingWhileGrowing: a log still growing toward Capacity keeps the
// contract of a full one. A cursor it never issued is fell-behind, and
// Pending reads Capacity, not the buffer's current length; a cursor inside
// what it holds reads its distance. Footprint follows the buffer, not the
// retention.
func TestPendingWhileGrowing(t *testing.T) {
	l := New()
	head := publish(l, 100)
	f := Size(l)
	if f.Slots < 100 || f.Slots >= Capacity {
		t.Fatalf("after 100 records the log has %d slots, want at least 100 and fewer than %d", f.Slots, Capacity)
	}
	if want := int64(len("/p1")*9 + len("/p10")*90 + len("/p100")); f.PathBytes != want {
		t.Fatalf("path bytes %d, want %d", f.PathBytes, want)
	}
	for _, cursor := range []uint64{head + 1, 2 * head, ^uint64(0)} {
		if got := l.Pending(cursor); got != Capacity {
			t.Errorf("Pending(%d) at head %d = %d, want Capacity %d", cursor, head, got, Capacity)
		}
		if recs, next, fell := l.Since(cursor); !fell || recs != nil || next != head {
			t.Errorf("Since(%d) at head %d: fell=%v, %d records, next %d", cursor, head, fell, len(recs), next)
		}
	}
	for _, cursor := range []uint64{0, 1, 50, head} {
		if got := l.Pending(cursor); got != int(head-cursor) {
			t.Errorf("Pending(%d) at head %d = %d, want %d", cursor, head, got, head-cursor)
		}
		if recs, next, fell := l.Since(cursor); fell || uint64(len(recs)) != head-cursor || next != head {
			t.Errorf("Since(%d) at head %d: fell=%v, %d records, next %d", cursor, head, fell, len(recs), next)
		}
	}
	if Size(nil) != (Footprint{}) {
		t.Error("a System without peers has a coherence footprint")
	}
}
