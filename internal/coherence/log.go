// Package coherence is the sharded tier's invalidation channel: one
// bounded log of path-bearing records per System, written where a path's
// cached answer stops being true and read by cursor from the peers that
// may still hold it (DESIGN §8). It carries nothing else — telemetry's
// journal records the same mutations for the auditor and never feeds this
// log, so observability can be off, full or overrun without a peer
// noticing.
package coherence

import "dircache/internal/ringlog"

// Capacity is the number of records a Log retains: a reader may lag its
// writer by this many mutations before it must drop its whole cache.
const Capacity = 4096

// Record is one published invalidation: the cached view of Path (and
// everything under it, and its parent's listing) may be wrong on any
// peer. The namespace operation that changed Path writes it (vfs, after
// its backend call), and Note names the cause: a vfs invalidation reason,
// "create" or "rename-dst". A peer applies a "perm" in place and discards
// its view of Path for any other (vfs.InvalidateCachedPath).
type Record struct {
	ID   uint64 // the record's sequence number in its Log: dense from 1
	Path string
	Note string
}

// Log is a System's coherence log: the drop-oldest ring of Records, read
// by cursor (ringlog.Log.Since; a cursor is the last ID a reader saw).
type Log = ringlog.Log[Record]

// New returns an empty Log retaining Capacity records, each stamped with
// its sequence number as its ID.
func New() *Log {
	return ringlog.New(Capacity, func(r *Record, seq uint64) { r.ID = seq })
}
