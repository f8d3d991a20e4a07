// Package core implements the paper's directory cache optimizations (§3–§5):
// the Direct Lookup Hash Table keyed by full-path signatures, the
// per-credential Prefix Check Cache, the whole-path fastpath, coherence with
// permission and structural changes, symlink alias dentries, and deep
// negative dentries. It plugs into the VFS through the vfs.Hooks seam; the
// VFS and low-level file systems are unchanged, mirroring the paper's
// encapsulation claim.
package core

import (
	"sync/atomic"

	"dircache/internal/stripe"
	"dircache/internal/telemetry"
)

// PCC entry packing (one uint64, read/written atomically — the analogue of
// the paper's packed 8-byte {dentry pointer bits, seq} tuples):
//
//	bit 63      valid
//	bits 62..32 dentry seq (low 31 bits)
//	bits 31..0  dentry ID (low 32 bits)
//
// Dentry IDs are never reused, so a truncated-ID collision requires 2^32
// allocations; a truncated-seq false match requires exactly 2^31 bumps of
// one dentry. Both are documented accepted risks, smaller than the paper's
// own signature-collision budget.
const (
	pccValid   = uint64(1) << 63
	pccSeqMask = (uint64(1) << 31) - 1
)

func pccPack(dentryID, seq uint64) uint64 {
	return pccValid | (seq&pccSeqMask)<<32 | dentryID&0xffffffff
}

// pccWays is the set associativity.
const pccWays = 4

// pccEntryBytes is the in-memory footprint of one entry used when sizing
// from a byte budget: the 8-byte packed word (the per-set LRU byte is
// folded into the set's shared lru word, not charged per entry).
const pccEntryBytes = 8

// pccSet is one 4-way set. The lru word holds 4 packed 8-bit ages; it is
// updated racily, exactly like the paper's LRU bytes.
type pccSet struct {
	ways [pccWays]atomic.Uint64
	lru  atomic.Uint32
}

// pccTable is one fixed-size generation of the cache; the PCC swaps in a
// larger generation when the working set outgrows it.
type pccTable struct {
	sets []pccSet
	mask uint32
}

func newPCCTable(entries int) *pccTable {
	nsets := 1
	for nsets*pccWays < entries {
		nsets <<= 1
	}
	return &pccTable{sets: make([]pccSet, nsets), mask: uint32(nsets - 1)}
}

// setFor mixes the dentry ID into a set index.
func (t *pccTable) setFor(dentryID uint64) *pccSet {
	h := dentryID * 0x9e3779b97f4a7c15
	return &t.sets[uint32(h>>33)&t.mask]
}

// PCC is a per-credential prefix check cache (§3.1). Lookups and inserts
// are lock-free. The table starts at the paper's evaluated 64 KiB and —
// implementing the production policy the paper leaves as future work
// ("dynamically resize the PCC up to a maximum working set") — doubles
// when sustained capacity evictions show the working set has outgrown it,
// up to a configurable ceiling.
type PCC struct {
	table    atomic.Pointer[pccTable]
	maxSets  int
	resizing atomic.Bool

	// hits is bumped on every fastpath authorization; striped so that
	// concurrent hits on one shared credential (the common server shape:
	// many worker goroutines, one uid) don't serialize on a counter line.
	hits   stripe.Int64
	misses stripe.Int64
	// windowEvict drives the resize heuristic (noteEviction); it only needs
	// to be approximately monotonic between resets, which a striped counter
	// is.
	windowEvict stripe.Int64
	resizes     atomic.Int64
	flushes     atomic.Int64

	// credID is the owning credential's ID — the subject under which
	// flush/resize events are journaled. Zero for unattached unit-test
	// PCCs.
	credID uint64

	// tel, when set, resolves the owning kernel's telemetry subsystem so
	// the (rare) generation copy can be timed into HistPCCResize. Written
	// once before the PCC is published to its credential; nil in unit
	// tests that build a PCC directly.
	tel func() *telemetry.Telemetry
}

// newPCC builds a PCC holding roughly bytes of entries (default 64 KiB,
// the paper's evaluated size), growable up to maxBytes (default 32x; pass
// maxBytes == bytes to pin the size, as the PCC-sensitivity ablation does).
func newPCC(bytes, maxBytes int) *PCC {
	if bytes <= 0 {
		bytes = 64 << 10
	}
	if maxBytes <= 0 {
		maxBytes = 32 * bytes
	}
	if maxBytes < bytes {
		maxBytes = bytes
	}
	p := &PCC{}
	t := newPCCTable(bytes / pccEntryBytes)
	p.table.Store(t)
	max := newPCCTable(maxBytes / pccEntryBytes)
	p.maxSets = len(max.sets)
	return p
}

// Lookup reports whether (dentryID, seq) has a valid cached prefix check.
func (p *PCC) Lookup(dentryID, seq uint64) bool {
	want := pccPack(dentryID, seq)
	t := p.table.Load()
	s := t.setFor(dentryID)
	for w := 0; w < pccWays; w++ {
		if s.ways[w].Load() == want {
			touch(s, w)
			p.hits.Add(1)
			return true
		}
	}
	p.misses.Add(1)
	return false
}

// noteEviction drives the resize policy: when a window of capacity
// evictions larger than the table accumulates, the working set has cycled
// the cache at least once — double it. What counts is an insert that had to
// displace another dentry's entry. A lookup miss does not: most are
// revocations (a seq bump staled the dentry's own entry, which the insert
// that follows overwrites in place) or first touches that land in an empty
// way, and neither says the table is too small — since a permission change
// keeps DLHT entries, every revoked descendant that is re-read is such a
// miss.
func (p *PCC) noteEviction(t *pccTable) {
	if len(t.sets) >= p.maxSets {
		return
	}
	p.windowEvict.Add(1)
	if p.windowEvict.Load() < int64(len(t.sets)*pccWays*2) {
		return
	}
	if !p.resizing.CompareAndSwap(false, true) {
		return
	}
	defer p.resizing.Store(false)
	cur := p.table.Load()
	if cur != t || len(cur.sets) >= p.maxSets {
		return
	}
	var tel *telemetry.Telemetry
	var copyStart int64
	if p.tel != nil {
		if tel = p.tel(); tel.On() {
			copyStart = telemetry.Now()
		} else {
			tel = nil
		}
	}
	bigger := newPCCTable(len(cur.sets) * pccWays * 2)
	// Carry live entries over (rehash by ID bits reconstructed from the
	// packed word's low 32 bits; sufficient because setFor only consumes
	// those bits).
	for i := range cur.sets {
		for w := 0; w < pccWays; w++ {
			v := cur.sets[i].ways[w].Load()
			if v&pccValid == 0 {
				continue
			}
			id := v & 0xffffffff
			ns := bigger.setFor(id)
			for nw := 0; nw < pccWays; nw++ {
				if ns.ways[nw].Load() == 0 {
					ns.ways[nw].Store(v)
					break
				}
			}
		}
	}
	p.table.Store(bigger)
	p.windowEvict.Reset()
	p.resizes.Add(1)
	if tel != nil {
		tel.Record(telemetry.HistPCCResize, telemetry.Since(copyStart))
		tel.Emit(telemetry.JPCCResize, p.credID, int64(len(bigger.sets)*pccWays), telemetry.NoteNone)
	}
}

// Insert records a passed prefix check for (dentryID, seq), replacing a
// stale entry for the same dentry or the LRU way.
func (p *PCC) Insert(dentryID, seq uint64) {
	packed := pccPack(dentryID, seq)
	t := p.table.Load()
	s := t.setFor(dentryID)
	idBits := dentryID & 0xffffffff
	// Prefer a way already holding this dentry (stale seq), then an
	// invalid way, then the LRU victim.
	victim, evicts := -1, true
	var oldest uint32
	ages := s.lru.Load()
	for w := 0; w < pccWays; w++ {
		cur := s.ways[w].Load()
		if cur&pccValid == 0 || cur&0xffffffff == idBits {
			victim, evicts = w, false
			break
		}
		age := (ages >> (8 * w)) & 0xff
		// Equal-age ties pick the later way; fine for an LRU
		// approximation. (oldest starts at 0, so age >= oldest also
		// covers the first, victim == -1 iteration.)
		if age >= oldest {
			oldest = age
			victim = w
		}
	}
	s.ways[victim].Store(packed)
	touch(s, victim)
	if evicts {
		p.noteEviction(t)
	}
}

// touch ages every way and zeroes the touched one (racy by design).
func touch(s *pccSet, w int) {
	ages := s.lru.Load()
	// Saturating increment of each byte, then clear way w.
	bumped := ages
	for i := 0; i < pccWays; i++ {
		b := (ages >> (8 * i)) & 0xff
		if b < 0xff {
			b++
		}
		bumped = bumped&^(0xff<<(8*i)) | b<<(8*i)
	}
	bumped &^= 0xff << (8 * w)
	if bumped == ages {
		// Steady-state hit: way w is already newest and the others are
		// saturated. Skipping the store keeps repeated hits from writing
		// a cache line that every core probing this set also reads.
		return
	}
	s.lru.Store(bumped)
}

// Stats reports hit/miss counters.
func (p *PCC) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// Entries returns the current capacity in entries.
func (p *PCC) Entries() int { return len(p.table.Load().sets) * pccWays }

// Resizes reports how many times the table grew.
func (p *PCC) Resizes() int64 { return p.resizes.Load() }

// Flushes reports how many times the whole cache was invalidated.
func (p *PCC) Flushes() int64 { return p.flushes.Load() }

// Occupancy counts the currently valid entries (approximate under
// concurrent inserts).
func (p *PCC) Occupancy() int {
	t := p.table.Load()
	n := 0
	for i := range t.sets {
		for w := 0; w < pccWays; w++ {
			if t.sets[i].ways[w].Load()&pccValid != 0 {
				n++
			}
		}
	}
	return n
}

// Invalidate clears every entry (used on seq wraparound and in tests).
func (p *PCC) Invalidate() {
	t := p.table.Load()
	cleared := int64(0)
	for i := range t.sets {
		for w := 0; w < pccWays; w++ {
			if t.sets[i].ways[w].Swap(0)&pccValid != 0 {
				cleared++
			}
		}
	}
	p.flushes.Add(1)
	if p.tel != nil {
		if tel := p.tel(); tel.On() {
			tel.Emit(telemetry.JPCCFlush, p.credID, cleared, telemetry.NoteNone)
		}
	}
}
