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

	"dircache/internal/telemetry"
	"dircache/internal/vfs"
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
// from a byte budget: the 8-byte packed word (a way's LRU rank is a byte
// of the set's shared lru word, not charged per entry).
const pccEntryBytes = 8

// pccSet is one 4-way set. The lru word holds the ways' exact LRU ranks,
// one per byte (byte w is way w's rank: 0 newest, pccWays-1 the victim),
// a permutation of 0..3 stored xor pccRanks0 so the zero word of a fresh
// set is already one. It is updated racily, like the paper's LRU bytes: a
// concurrent touch may be lost, but every store writes a permutation made
// from the one its writer loaded, so the word always decodes to one.
type pccSet struct {
	ways [pccWays]atomic.Uint64
	lru  atomic.Uint32
}

// pccRanks0 is the identity ranking (way w has rank w), the value the
// zero lru word stands for.
const pccRanks0 = 0x03020100

// PCC is a per-credential prefix check cache (§3.1): the paper's fixed
// table of 4-way sets, 64 KiB by default. Lookups and inserts are
// lock-free. A working set larger than the table costs no slow walk: a
// PCC miss on a DLHT hit is answered by re-checking the prefix in place
// (recheckPrefix).
type PCC struct {
	sets []pccSet
	mask uint32

	// credID is the owning credential's ID — the subject under which
	// flush events are journaled. Zero for unattached unit-test PCCs.
	credID uint64

	// k, when set, is the owning kernel: flushes are counted in its
	// counters (PCCFlushes) and journaled in its telemetry. Written once
	// before the PCC is published to its credential; nil in unit tests
	// that build a PCC directly.
	k *vfs.Kernel
}

// newPCC builds a PCC holding roughly bytes of entries (default 64 KiB,
// the paper's evaluated size).
func newPCC(bytes int) *PCC {
	if bytes <= 0 {
		bytes = 64 << 10
	}
	nsets := 1
	for nsets*pccWays < bytes/pccEntryBytes {
		nsets <<= 1
	}
	return &PCC{sets: make([]pccSet, nsets), mask: uint32(nsets - 1)}
}

// setFor mixes the dentry ID into a set index.
func (p *PCC) setFor(dentryID uint64) *pccSet {
	h := dentryID * 0x9e3779b97f4a7c15
	return &p.sets[uint32(h>>33)&p.mask]
}

// Lookup reports whether (dentryID, seq) has a valid cached prefix check.
func (p *PCC) Lookup(dentryID, seq uint64) bool {
	want := pccPack(dentryID, seq)
	s := p.setFor(dentryID)
	for w := 0; w < pccWays; w++ {
		if s.ways[w].Load() == want {
			if s.rank(w) != 0 {
				s.touch(w)
			}
			return true
		}
	}
	return false
}

// Insert records a passed prefix check for (dentryID, seq), replacing a
// stale entry for the same dentry or the LRU way.
func (p *PCC) Insert(dentryID, seq uint64) {
	s := p.setFor(dentryID)
	idBits := dentryID & 0xffffffff
	// Prefer a way already holding this dentry (stale seq), then an
	// invalid way, then the least recently used one.
	victim := -1
	for w := 0; w < pccWays; w++ {
		if cur := s.ways[w].Load(); cur&pccValid == 0 || cur&0xffffffff == idBits {
			victim = w
			break
		}
	}
	if victim < 0 {
		// One load: a touch racing this could move rank pccWays-1.
		ranks := s.lru.Load() ^ pccRanks0
		for victim = pccWays - 1; victim > 0 && ranks>>(8*victim)&0xff != pccWays-1; victim-- {
		}
	}
	s.ways[victim].Store(pccPack(dentryID, seq))
	if s.rank(victim) != 0 {
		s.touch(victim)
	}
}

// rank returns way w's LRU rank.
func (s *pccSet) rank(w int) uint32 { return (s.lru.Load() ^ pccRanks0) >> (8 * w) & 0xff }

// touch makes way w, which is not already rank 0, the set's newest: it
// takes rank 0 and every way younger than it gets one older, so a
// permutation stays one. Its callers test the rank first, inline: a hit
// on the newest way writes nothing, and repeated hits on one set leave
// its line shared by every core probing it.
//
//go:noinline
func (s *pccSet) touch(w int) {
	ranks := s.lru.Load() ^ pccRanks0
	r := ranks >> (8 * w) & 0xff
	var out uint32
	for i := 0; i < pccWays; i++ {
		b := ranks >> (8 * i) & 0xff
		if b < r {
			b++
		}
		out |= b << (8 * i)
	}
	s.lru.Store(out&^(0xff<<(8*w)) ^ pccRanks0)
}

// Entries returns the capacity in entries.
func (p *PCC) Entries() int { return len(p.sets) * pccWays }

// Occupancy counts the currently valid entries (approximate under
// concurrent inserts).
func (p *PCC) Occupancy() int {
	n := 0
	for i := range p.sets {
		for w := 0; w < pccWays; w++ {
			if p.sets[i].ways[w].Load()&pccValid != 0 {
				n++
			}
		}
	}
	return n
}

// Invalidate clears every entry (used on seq wraparound and in tests).
func (p *PCC) Invalidate() {
	cleared := int64(0)
	for i := range p.sets {
		for w := 0; w < pccWays; w++ {
			if p.sets[i].ways[w].Swap(0)&pccValid != 0 {
				cleared++
			}
		}
	}
	if p.k != nil {
		p.k.Count(vfs.NPCCFlushes, 1)
		p.k.Telemetry().Emit(telemetry.JPCCFlush, p.credID, cleared, telemetry.NoteNone)
	}
}
