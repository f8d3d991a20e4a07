package core

import (
	"strings"
	"sync/atomic"
	"unsafe"

	"dircache/internal/sig"
)

// The prefix memo's size: 1024 sets of 4 slots, 32 KB of pointers per
// Core, more than the directories a warm working set walks under. Four
// ways, because with one, hot prefixes that share a slot evict each other
// on every stat: over warm_stat's ~300 prefixes a direct-mapped table
// re-published, and allocated, once in a hundred stats.
const (
	memoSetBits = 10
	memoWays    = 4
	memoSlots   = memoWays << memoSetBits
)

// prefixMemo lets a warm scan hash only a path's last component. An entry
// holds what a directory prefix — the path as spelled up to its last '/'
// — adds to the hash when the walk starts at a given hashed length: the
// multilinear hash is a sum of per-(byte, position) terms, so that sum
// does not depend on the start's accumulators, and a scan from any start
// of that length can apply it and hash the last component alone
// (sig.Delta).
//
// Nothing in it is ever invalidated: the entry is a fact about bytes and
// positions, which no rename, chmod, mount or alias changes. What a path
// names is still decided by the DLHT probe, fresh, keyed and the PCC on
// the state the scan ends in, exactly as when it hashed every byte. Only
// prefixes without "." or ".." are kept, so applying one never skips a
// permission check the scan would have made, nor a pop.
//
// Entries are immutable and published by one pointer store: a reader sees
// an entry whole or not at all. A set's ways fill in order and are never
// emptied, so a lookup stops at the first empty one; a full set replaces
// one way. Any collision costs a miss, since the bytes are compared.
type prefixMemo struct {
	seed    uint64
	sets    [1 << memoSetBits][memoWays]atomic.Pointer[memoEntry]
	entries atomic.Int64
	bytes   atomic.Int64 // entries and their prefixes
}

// memoEntry is one prefix's delta: its components pushed from d.At().
type memoEntry struct {
	prefix string
	d      sig.Delta
	depth  int
}

func (e *memoEntry) size() int64 { return int64(unsafe.Sizeof(*e)) + int64(len(e.prefix)) }

// set picks prefix's set at start length pos, and returns the hash too,
// with a multiply-xorshift hash taken eight bytes at a time: a few
// nanoseconds where the path hash costs two or three a byte.
func (m *prefixMemo) set(pos int, prefix string) (*[memoWays]atomic.Pointer[memoEntry], uint64) {
	h := m.seed ^ uint64(pos)<<32 ^ uint64(len(prefix))
	s := prefix
	for ; len(s) > 8; s = s[8:] {
		h = (h ^ le64(s)) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	if len(prefix) >= 8 {
		h ^= le64(prefix[len(prefix)-8:]) // the last word, overlapping the one before
	} else {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i]) << (8 * i)
		}
	}
	h *= 0x94d049bb133111eb
	return &m.sets[h>>(64-memoSetBits)], h
}

// le64 reads s's first eight bytes as one little-endian word (one load).
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// lookup returns the entry for prefix at start length pos, or nil.
func (m *prefixMemo) lookup(pos int, prefix string) *memoEntry {
	set, _ := m.set(pos, prefix)
	for i := range set {
		e := set[i].Load()
		if e == nil {
			return nil
		}
		if e.d.At() == pos && e.prefix == prefix {
			return e
		}
	}
	return nil
}

// publish records that prefix's depth components add d: in the set's
// first empty way, or in place of one way of a full set. The prefix is
// copied: the caller's path may be a window on a buffer that will be
// reused.
func (m *prefixMemo) publish(prefix string, d sig.Delta, depth int) {
	e := &memoEntry{prefix: strings.Clone(prefix), d: d, depth: depth}
	set, h := m.set(d.At(), prefix)
	for i := range set {
		if set[i].CompareAndSwap(nil, e) {
			m.entries.Add(1)
			m.bytes.Add(e.size())
			return
		}
	}
	old := set[h&(memoWays-1)].Swap(e)
	m.bytes.Add(e.size() - old.size())
}

// PrefixMemoStats sizes the prefix memo: its fixed slots, the entries
// held and the bytes of both.
type PrefixMemoStats struct {
	Slots   int   `json:"slots"`
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// PrefixMemoStats snapshots the prefix memo.
func (c *Core) PrefixMemoStats() PrefixMemoStats {
	m := &c.memo
	return PrefixMemoStats{
		Slots:   memoSlots,
		Entries: m.entries.Load(),
		Bytes:   int64(unsafe.Sizeof(m.sets)) + m.bytes.Load(),
	}
}
