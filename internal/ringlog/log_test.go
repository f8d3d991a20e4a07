package ringlog

import (
	"fmt"
	"slices"
	"testing"
)

// rec is a coherence-shaped item: its ID is stamped with its sequence
// number on Append.
type rec struct {
	ID   uint64
	Path string
	Note string
}

// capacity is the coherence log's retention.
const capacity = 4096

func newRecLog(capacity int) *Log[rec] {
	return New(capacity, func(r *rec, seq uint64) { r.ID = seq })
}

// publish appends n records and returns the last sequence number.
func publish(l *Log[rec], n int) uint64 {
	var seq uint64
	for i := 0; i < n; i++ {
		seq = l.Append(rec{Path: fmt.Sprintf("/p%d", l.Head()+1), Note: "t"})
	}
	return seq
}

// TestSinceEveryCursorAcrossWrap reads from every cursor a reader could
// hold, before and after the ring wraps and with the head in every slot:
// inside retention the read is exactly the records (cursor, head] in
// order with their own paths; outside it, fell-behind with nothing.
func TestSinceEveryCursorAcrossWrap(t *testing.T) {
	const n = 8
	l := newRecLog(n)
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
	l := newRecLog(capacity)
	head := publish(l, capacity+100)
	oldest := head - capacity + 1

	recs, next, fell := l.Since(oldest - 1)
	if fell || len(recs) != capacity || next != head {
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
		head: 0, head - 3: 3, oldest - 1: capacity,
		oldest - 2: capacity, 0: capacity, head + 1: capacity, ^uint64(0): capacity,
	} {
		if got := l.Pending(cursor); got != want {
			t.Errorf("Pending(%d) = %d with head %d, want %d", cursor, got, head, want)
		}
	}
	var none *Log[rec]
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

// FuzzRingLog drives a ring of 1–16 slots with random appends and reads
// from random cursors — behind the retention, inside it, at the head and
// past it — against a plain slice of everything ever appended: Since,
// Pending, Retained and Counts must all say what the slice says.
func FuzzRingLog(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21}) // every cursor around a wrapped ring of 3
	f.Add([]byte{0, 1, 0, 1, 0, 1})
	f.Add([]byte{15, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 255, 1, 33})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := int(ops[0]%16) + 1
		l := newRecLog(n)
		var all []rec // the model: every record ever appended, in order
		for i, op := range ops[1:] {
			head := uint64(len(all))
			if op%2 == 0 {
				all = append(all, rec{ID: head + 1, Path: fmt.Sprintf("/%d", i)})
				if seq := l.Append(rec{Path: all[head].Path}); seq != head+1 {
					t.Fatalf("Append %d returned %d", head+1, seq)
				}
				continue
			}
			// A cursor from head+2 down to 2n+2 behind it; below zero it
			// is a cursor some other log issued, far past this head.
			back := int64(op>>1) % int64(2*n+5)
			cursor := uint64(int64(head) + 2 - back)
			if int64(head)+2 < back {
				cursor = head + 1<<40
			}
			oldest := uint64(1)
			if head > uint64(n) {
				oldest = head - uint64(n) + 1
			}
			fell := cursor > head || cursor+1 < oldest
			items, next, gotFell := l.Since(cursor)
			if gotFell != fell || next != head {
				t.Fatalf("cap %d head %d: Since(%d) fell=%v next=%d, want fell=%v next=%d", n, head, cursor, gotFell, next, fell, head)
			}
			var want []rec
			wantPending := n
			if !fell {
				want = all[cursor:]
				wantPending = int(head - cursor)
			}
			if !slices.Equal(items, want) {
				t.Fatalf("cap %d head %d: Since(%d) = %v, want %v", n, head, cursor, items, want)
			}
			if got := l.Pending(cursor); got != wantPending {
				t.Fatalf("cap %d head %d: Pending(%d) = %d, want %d", n, head, cursor, got, wantPending)
			}
			kept, dropped := l.Retained()
			if dropped != oldest-1 || !slices.Equal(kept, all[oldest-1:]) {
				t.Fatalf("cap %d head %d: Retained = %v, %d dropped; want %v, %d", n, head, kept, dropped, all[oldest-1:], oldest-1)
			}
			if retained, dropped := l.Counts(); retained != len(kept) || dropped != oldest-1 {
				t.Fatalf("cap %d head %d: Counts = %d, %d; want %d, %d", n, head, retained, dropped, len(kept), oldest-1)
			}
		}
	})
}
