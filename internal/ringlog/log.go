// Package ringlog is the one drop-oldest ring in the tree: a bounded log
// whose items carry dense sequence numbers from 1, read by cursor. The
// sharded tier's coherence log (DESIGN §8) is a Log of coherence records;
// telemetry's sampled trace ring and slow-walk flight recorder (DESIGN §6)
// are Logs of traces. Only telemetry's journal keeps a ring of its own: it
// is striped by subject, holds no pointers and is merged by time, which
// none of these needs.
package ringlog

import (
	"sync"
	"sync/atomic"
)

// Log is a drop-oldest ring with dense sequence numbers. They are
// assigned under mu, so item seq always sits in slot seq % len(buf) and a
// reader computes what it missed from two numbers, head and its own
// cursor.
//
// The buffer starts at minSlots and doubles, up to the capacity, when an
// append would otherwise drop: a log costs what it holds, and one that is
// never written past a few items never pays for its retention. Retention
// is the capacity whatever the buffer's length, and nothing is dropped
// until the buffer has reached it.
type Log[T any] struct {
	// head is the newest item's sequence number (0 = nothing appended).
	// It is stored after the slot is written, still under mu; a reader
	// whose cursor equals it returns without taking the lock.
	head     atomic.Uint64
	mu       sync.Mutex
	buf      []T
	capacity int
	stamp    func(*T, uint64)
}

// minSlots is the buffer a Log starts with.
const minSlots = 8

// New returns an empty Log retaining capacity items. A non-nil stamp is
// called under the lock on each appended item, in its slot, with the
// item's sequence number (coherence records carry theirs as their ID).
func New[T any](capacity int, stamp func(item *T, seq uint64)) *Log[T] {
	return &Log[T]{buf: make([]T, min(capacity, minSlots)), capacity: capacity, stamp: stamp}
}

// Append stores v, overwriting the oldest item once the ring is full, and
// returns its sequence number.
func (l *Log[T]) Append(v T) uint64 {
	l.mu.Lock()
	seq := l.head.Load() + 1
	if seq > uint64(len(l.buf)) && len(l.buf) < l.capacity {
		l.grow(seq - 1)
	}
	slot := &l.buf[seq%uint64(len(l.buf))]
	*slot = v
	if l.stamp != nil {
		l.stamp(slot, seq)
	}
	l.head.Store(seq)
	l.mu.Unlock()
	return seq
}

// grow doubles the buffer, up to the capacity, under mu. Nothing has been
// dropped yet, so items 1..head are all there, each moving from slot
// seq % old length to slot seq % new length.
func (l *Log[T]) grow(head uint64) {
	buf := make([]T, min(2*len(l.buf), l.capacity))
	for seq := uint64(1); seq <= head; seq++ {
		buf[seq%uint64(len(buf))] = l.buf[seq%uint64(len(l.buf))]
	}
	l.buf = buf
}

// Slots is the length of the ring's buffer: what it holds now, from
// minSlots up to the capacity.
func (l *Log[T]) Slots() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Head returns the newest item's sequence number: how many items were
// ever appended.
func (l *Log[T]) Head() uint64 {
	if l == nil {
		return 0
	}
	return l.head.Load()
}

// Counts returns how many items the ring retains and how many it has
// dropped to make room, from one read of head and without the lock.
func (l *Log[T]) Counts() (retained int, dropped uint64) {
	head := l.head.Load()
	dropped = l.oldest(head) - 1
	return int(head - dropped), dropped
}

// Pending is how many items a reader at cursor has yet to account for:
// head − cursor while Since would hand them over. Where Since would report
// fell-behind instead — the cursor is ahead of head (another log issued
// it, e.g. before a restart) or older than the retention — the reader owes
// one whole-cache drop whatever the subtraction says, and Pending is the
// log's capacity, the furthest a reader can trail and still be told what
// it missed.
func (l *Log[T]) Pending(cursor uint64) int {
	if l == nil {
		return 0
	}
	head := l.head.Load()
	if cursor > head || head-cursor > uint64(l.capacity) {
		return l.capacity
	}
	return int(head - cursor)
}

// Since returns the items with sequence numbers > cursor in order and the
// cursor to pass next time. It costs O(len(items)); a caught-up reader
// pays one atomic load and no allocation.
//
// fellBehind reports that the reader cannot know what it missed and must
// drop everything it caches: either the item after its cursor was already
// overwritten (cursor+1 < oldest retained), or the cursor is ahead of
// head, so it was issued by some other log. Then items is nil and next is
// head — the gap is skipped, so the fallback is paid once, not once per
// poll.
//
// A nil Log reads as a log nothing was ever appended to.
func (l *Log[T]) Since(cursor uint64) (items []T, next uint64, fellBehind bool) {
	if l == nil {
		return nil, 0, cursor != 0
	}
	if cursor == l.head.Load() {
		return nil, cursor, false
	}
	return l.since(cursor)
}

// since is Since past the caught-up check. Kept apart, it leaves Since a
// small frame with no deferred unlock, so a caught-up read — what a pump
// pays per shard with nothing to do — stays a load and a compare.
func (l *Log[T]) since(cursor uint64) (items []T, next uint64, fellBehind bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.head.Load()
	if cursor > head || cursor+1 < l.oldest(head) {
		return nil, head, true
	}
	return l.between(cursor+1, head), head, false
}

// Retained returns the retained items, oldest first, and how many older
// ones the ring has dropped.
func (l *Log[T]) Retained() (items []T, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.head.Load()
	first := l.oldest(head)
	return l.between(first, head), first - 1
}

// Each calls f on every retained item, oldest first, under the lock.
func (l *Log[T]) Each(f func(*T)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.head.Load()
	n := uint64(len(l.buf))
	for seq := l.oldest(head); seq <= head; seq++ {
		f(&l.buf[seq%n])
	}
}

// oldest is the sequence number of the oldest item retained at head.
func (l *Log[T]) oldest(head uint64) uint64 {
	if n := uint64(l.capacity); head > n {
		return head - n + 1
	}
	return 1
}

// between returns items first..last in order (nil when there are none).
// Caller holds mu. They are all in the buffer: it is shorter than the
// capacity only while nothing has been dropped.
func (l *Log[T]) between(first, last uint64) []T {
	if first > last {
		return nil
	}
	n := uint64(len(l.buf))
	out := make([]T, 0, last-first+1)
	for seq := first; seq <= last; seq++ {
		out = append(out, l.buf[seq%n])
	}
	return out
}
