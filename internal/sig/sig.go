// Package sig implements the path-signature scheme of §3.3 of the paper:
// a keyed 2-universal multilinear hash (Lemire & Kaser, "Strongly universal
// string hashing is fast") over the bytes of a canonical path, producing a
// 256-bit output that is split into a 16-bit direct-lookup-hash-table index
// and a 240-bit signature used as the stored key.
//
// Two properties the directory cache depends on are preserved:
//
//  1. The hash is keyed with a boot-time random key, so collisions cannot be
//     precomputed offline, and the same path yields different signatures
//     across instances.
//  2. Hashing is resumable from any prefix: State captures the intermediate
//     accumulator so each dentry can store the state of its own full path
//     and children can be hashed by appending "/name" (paper: "we store the
//     intermediate state of the hash function in each dentry so that
//     hashing can resume from any prefix").
//
// In the multilinear construction each output lane j is
//
//	acc_j = k_j[0] + Σ_i k_j[i+1] · b_i   (mod 2^64)
//
// over path bytes b_i with independent random 64-bit key words k_j. Because
// addition and multiplication mod 2^64 never propagate information downward,
// the low 16 bits of a lane are uninfluenced by high bits, which is exactly
// the property §3.3 uses to split index bits from signature bits safely.
//
// Two things about the implementation follow from that formula and cost
// nothing in it:
//
//   - The key schedule is stored position-major, k[pos][lane]: the four
//     words a byte consumes are adjacent (half a cache line, one bounds
//     check), where lane-major storage touched four lines per byte. The
//     words are still drawn in lane-major order, so a seed produces the
//     signatures it always did (golden_test.go pins them).
//   - Every term is a function of one byte and its position alone, so
//     appending is invertible: UnappendComponent subtracts exactly the
//     terms AppendComponent added. The path cursor in internal/core keeps
//     one State, grows it in place per component and shrinks it on "..",
//     instead of saving a 48-byte State per component to restore.
//
// There are therefore two ways to drive a State. The value methods
// (AppendString, AppendByte) return a new State and leave the receiver
// alone — what a dentry's stored prefix state needs. The pointer methods
// (AppendComponent, UnappendComponent) mutate in place — what a scan over
// one path needs. One loop (mix) serves both.
package sig

import (
	"fmt"
	"sync/atomic"
)

// MaxPathLen bounds the number of bytes that can be hashed into one
// signature; it matches Linux's PATH_MAX.
const MaxPathLen = 4096

// lanes is the number of independent 64-bit multilinear accumulators;
// 4 lanes give the 256-bit output the paper's design calls for.
const lanes = 4

// IndexBits is the number of low-order bits peeled off for the DLHT bucket
// index (§3.3: "a 16 bit hash table index and a 240-bit signature").
const IndexBits = 16

// Signature is the 240-bit path signature. W[0] holds the 48 bits that
// remain of lane 0 after the index is removed; W[1..3] hold full lanes.
type Signature struct {
	W [4]uint64
}

// Zero reports whether the signature is the all-zero value (used as a
// sentinel for "not yet signed").
func (s Signature) Zero() bool {
	return s.W[0] == 0 && s.W[1] == 0 && s.W[2] == 0 && s.W[3] == 0
}

// String renders the signature in hex for diagnostics.
func (s Signature) String() string {
	return fmt.Sprintf("%012x%016x%016x%016x", s.W[0], s.W[1], s.W[2], s.W[3])
}

// Key is the boot-time random key schedule: one 64-bit word per lane per
// byte position (plus the additive constant at position 0), laid out
// position-major so the four words one byte consumes share half a cache
// line and one bounds check. It is immutable after construction and safe
// for concurrent use.
type Key struct {
	k [MaxPathLen + 1][lanes]uint64
}

// NewKey derives a key schedule deterministically from seed using a
// splitmix64 generator. Pass a random seed at boot; pass a fixed seed in
// tests for reproducibility.
func NewKey(seed uint64) *Key {
	key := &Key{}
	s := seed
	next := func() uint64 {
		// splitmix64: well-distributed, cheap, and dependency-free.
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	// Words are drawn lane by lane, as they were when each lane had its
	// own slice: the layout is not part of the function, so a seed keeps
	// producing the signatures it always did.
	for j := 0; j < lanes; j++ {
		for i := range key.k {
			key.k[i][j] = next()
		}
	}
	return key
}

// State is the resumable intermediate hash state: the byte position reached
// and the accumulator of each lane. The zero State is not valid; obtain one
// from Key.NewState. State is a small value type; copies are independent.
type State struct {
	key *Key
	pos int
	acc [lanes]uint64
}

// NewState returns the state of the empty string (accumulators hold the
// additive key constant).
func (k *Key) NewState() State {
	return State{key: k, acc: k.k[0]}
}

// Valid reports whether the state was produced by a Key.
func (st State) Valid() bool { return st.key != nil }

// Len returns the number of bytes hashed so far.
func (st State) Len() int { return st.pos }

// AppendByte returns the state extended by one byte. It panics if the
// MaxPathLen bound is exceeded — the VFS rejects such paths with
// ENAMETOOLONG before hashing.
func (st State) AppendByte(b byte) State {
	st.mix(b, "")
	return st
}

// AppendString returns the state extended by all bytes of s.
func (st State) AppendString(s string) State {
	if s != "" {
		st.mix(s[0], s[1:])
	}
	return st
}

// AppendComponent extends the state in place by "/" and comp — one path
// component as the canonical form spells it — in one pass.
func (st *State) AppendComponent(comp string) { st.mix('/', comp) }

// UnappendComponent is AppendComponent's exact inverse: the state that
// had "/"+comp appended last returns to what it was before. Each byte's
// term depends only on the byte and its position, so acc − Σ k·b is
// computed as −(−acc + Σ k·b) with the same loop that added the terms.
func (st *State) UnappendComponent(comp string) {
	n := len(comp) + 1
	if st.pos < n {
		panic("sig: unappend past the start of the path")
	}
	st.pos -= n
	st.negate()
	st.mix('/', comp)
	st.negate()
	st.pos -= n
}

func (st *State) negate() {
	for j := range st.acc {
		st.acc[j] = -st.acc[j]
	}
}

// mix is the one hashing loop: it adds the terms of first and then of
// rest's bytes at the positions following st.pos, in place, with the four
// accumulators held in registers throughout. Taking the leading byte
// apart from the rest lets a component's "/" and its name go through in
// one call without being concatenated.
func (st *State) mix(first byte, rest string) {
	n := len(rest) + 1
	if st.pos+n > MaxPathLen {
		panic("sig: path exceeds MaxPathLen")
	}
	ks := st.key.k[st.pos+1 : st.pos+1+n]
	w := &ks[0]
	a0 := st.acc[0] + w[0]*uint64(first)
	a1 := st.acc[1] + w[1]*uint64(first)
	a2 := st.acc[2] + w[2]*uint64(first)
	a3 := st.acc[3] + w[3]*uint64(first)
	ks = ks[1:]
	for i := 0; i < len(rest) && i < len(ks); i++ {
		b := uint64(rest[i])
		w := &ks[i]
		a0 += w[0] * b
		a1 += w[1] * b
		a2 += w[2] * b
		a3 += w[3] * b
	}
	st.acc[0], st.acc[1], st.acc[2], st.acc[3] = a0, a1, a2, a3
	st.pos += n
}

// Fits reports whether n more bytes can be appended without exceeding
// MaxPathLen.
func (st *State) Fits(n int) bool { return st.pos+n <= MaxPathLen }

// Sum finalizes the state into a DLHT bucket index and a 240-bit signature.
// The index is the low 16 bits of lane 0; the signature is everything else.
// Finalization folds in the length so that prefixes of a path (which share
// accumulator structure) cannot collide with the path itself by padding.
//
// Sum and Fits read the state through a pointer because the path cursor
// calls them right after an in-place append: a value receiver copies the
// State with 16-byte loads over the 8-byte stores the append just made,
// which defeats store forwarding — measured at ~15 ns per call.
func (st *State) Sum() (idx uint16, s Signature) {
	k := st.key
	// Fold the length through one more multilinear step using the
	// position-0 key words, which ordinary bytes never consume at this
	// offset pattern (ordinary bytes use k[pos] for pos >= 1).
	l := uint64(st.pos) + 1 // +1 so the empty path is also mixed
	f0 := st.acc[0] + k.k[0][0]*l
	f1 := st.acc[1] + k.k[0][1]*l
	f2 := st.acc[2] + k.k[0][2]*l
	f3 := st.acc[3] + k.k[0][3]*l
	idx = uint16(f0)
	s.W[0] = f0 >> IndexBits
	s.W[1] = f1
	s.W[2] = f2
	s.W[3] = f3
	return idx, s
}

// HashString is a convenience: hash an entire string from scratch.
func (k *Key) HashString(s string) (uint16, Signature) {
	st := k.NewState().AppendString(s)
	return st.Sum()
}

// Lane1 is W[1] of HashString(s)'s signature, computed alone: one
// multiply per byte where the full signature takes four. The shard ring
// places keys by it, and a caller that wants one 64-bit lane has no use
// for the other 192 bits. Bytes past MaxPathLen are left out — no such
// path resolves anywhere, so where it routes does not matter — where
// HashString panics.
func (k *Key) Lane1(s string) uint64 {
	if len(s) > MaxPathLen {
		s = s[:MaxPathLen]
	}
	ks := k.k[1 : 1+len(s)]
	a := k.k[0][1]
	for i := 0; i < len(s) && i < len(ks); i++ {
		a += ks[i][1] * uint64(s[i])
	}
	return a + k.k[0][1]*(uint64(len(s))+1)
}

// Shared holds one State where a single writer at a time (the owner's
// lock) stores it and any number of readers load it without a lock — a
// dentry's stored prefix state, kept in the dentry's own slot instead of a
// heap snapshot behind a pointer. The words are a seqlock: hdr carries a
// version above the low 16 bits and pos+1 in them (0 = no state), a writer
// moves hdr to a stateless version before it touches acc, and a reader
// whose two hdr loads agree saw no write between them. The key is not
// stored: every State of one table shares it, so Load takes it.
type Shared struct {
	hdr atomic.Uint64
	acc [lanes]atomic.Uint64
}

const sharedPos = 1<<16 - 1 // MaxPathLen+1 fits

// Load fills *dst with the stored state and reports whether there was one
// (false too for a read torn by a concurrent writer: the caller falls back
// as if nothing were stored, and *dst is then garbage). It writes through
// the pointer because its hot caller, the path cursor, appends in place
// right after: a State returned by value is copied with wide loads over
// these narrow stores, the store-forwarding stall Sum's comment describes.
func (sh *Shared) Load(k *Key, dst *State) bool {
	h := sh.hdr.Load()
	if h&sharedPos == 0 {
		return false
	}
	dst.key, dst.pos = k, int(h&sharedPos)-1
	for j := range dst.acc {
		dst.acc[j] = sh.acc[j].Load()
	}
	return sh.hdr.Load() == h
}

// Store publishes *st; storing what is already held writes nothing. The
// caller holds the owner's lock.
func (sh *Shared) Store(st *State) {
	h := sh.hdr.Load()
	same := int(h&sharedPos)-1 == st.pos
	for j := 0; same && j < lanes; j++ {
		same = sh.acc[j].Load() == st.acc[j]
	}
	if same {
		return
	}
	h = h&^sharedPos + 1<<16
	sh.hdr.Store(h)
	for j := range st.acc {
		sh.acc[j].Store(st.acc[j])
	}
	sh.hdr.Store(h + uint64(st.pos) + 1)
}

// Clear drops the stored state. The caller holds the owner's lock.
func (sh *Shared) Clear() {
	if h := sh.hdr.Load(); h&sharedPos != 0 {
		sh.hdr.Store(h&^sharedPos + 1<<16)
	}
}
