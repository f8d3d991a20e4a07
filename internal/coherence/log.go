// Package coherence is the sharded tier's invalidation channel: one
// bounded log of path-bearing records per System, written where a path's
// cached answer stops being true and read by cursor from the peers that
// may still hold it (DESIGN §8). It carries nothing else — telemetry's
// journal records the same mutations for the auditor and never feeds this
// log, so observability can be off, full or overrun without a peer
// noticing.
package coherence

import (
	"sync"
	"sync/atomic"
)

// Capacity is the number of records a Log retains: a reader may lag its
// writer by this many mutations before it must drop its whole cache.
const Capacity = 4096

// Record is one published invalidation: the cached view of Path (and
// everything under it, and its parent's listing) may be wrong on any
// peer. Note names the cause (the vfs invalidation reason, "create" or
// "rename-dst"); a peer applies a "perm" in place and discards its view
// of Path for any other (vfs.InvalidateCachedPath).
type Record struct {
	ID   uint64 // dense from 1, in publication order
	Path string
	Note string
}

// Log is a drop-oldest ring of Records with dense IDs. IDs are assigned
// under mu, so record ID always sits in slot ID % len(buf) and a reader
// computes what it missed from two numbers, head and its own cursor.
type Log struct {
	// head is the newest record's ID (0 = nothing published). It is
	// stored after the slot is written, still under mu; a reader whose
	// cursor equals it returns without taking the lock.
	head atomic.Uint64
	mu   sync.Mutex
	buf  []Record
}

// New returns an empty Log retaining Capacity records.
func New() *Log { return newLog(Capacity) }

func newLog(capacity int) *Log { return &Log{buf: make([]Record, capacity)} }

// Publish appends one record and returns its ID.
func (l *Log) Publish(path, note string) uint64 {
	l.mu.Lock()
	id := l.head.Load() + 1
	l.buf[id%uint64(len(l.buf))] = Record{ID: id, Path: path, Note: note}
	l.head.Store(id)
	l.mu.Unlock()
	return id
}

// Head returns the newest record's ID; Head() − cursor is how many
// records a reader at cursor has yet to see.
func (l *Log) Head() uint64 {
	if l == nil {
		return 0
	}
	return l.head.Load()
}

// Pending is how many records a reader at cursor has yet to account for:
// head − cursor while Since would hand them over. Where Since would report
// fell-behind instead — the cursor is ahead of head (another log issued
// it, e.g. before a restart) or older than the retention — the reader owes
// one whole-cache drop whatever the subtraction says, and Pending is the
// log's capacity, the furthest a reader can trail and still be told what
// it missed.
func (l *Log) Pending(cursor uint64) int {
	if l == nil {
		return 0
	}
	head := l.head.Load()
	if cursor > head || head-cursor > uint64(len(l.buf)) {
		return len(l.buf)
	}
	return int(head - cursor)
}

// Since returns the records with ID > cursor in ID order and the cursor
// to pass next time. It costs O(len(recs)); a caught-up reader pays one
// atomic load and no allocation.
//
// fellBehind reports that the reader cannot know what it missed and must
// drop everything it caches: either the record after its cursor was
// already overwritten (cursor+1 < oldest retained ID), or the cursor is
// ahead of head, so it was issued by some other log. Then recs is nil
// and next is head — the gap is skipped, so the fallback is paid once,
// not once per poll.
//
// A nil Log reads as a log nothing was ever published to.
func (l *Log) Since(cursor uint64) (recs []Record, next uint64, fellBehind bool) {
	if l == nil {
		return nil, 0, cursor != 0
	}
	if cursor == l.head.Load() {
		return nil, cursor, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	head := l.head.Load()
	n := uint64(len(l.buf))
	oldest := uint64(1)
	if head > n {
		oldest = head - n + 1
	}
	if cursor > head || cursor+1 < oldest {
		return nil, head, true
	}
	recs = make([]Record, 0, head-cursor)
	for id := cursor + 1; id <= head; id++ {
		recs = append(recs, l.buf[id%n])
	}
	return recs, head, false
}
