// Package slab provides chunked, index-addressed object arenas with
// free-lists and epoch-based reclamation. It exists to take the directory
// cache's bulk state — the dentries, which both hash tables chain
// through — out of the general-purpose GC heap: at millions of entries, a heap of
// individually tracked objects makes the garbage collector the hot path
// (every mark phase touches every dentry). An arena stores objects in
// large chunks, so the GC scans chunk headers instead of entries, and a
// freed slot is recycled through the free-list instead of becoming
// garbage.
//
// Slots are addressed by 32-bit handles (0 = nil) and referenced
// long-term by generation-tagged Refs: each slot carries a generation
// counter that is odd while the slot is live and even while it is free,
// bumped on retire and again on reuse. A stale Ref therefore
// self-invalidates — Resolve returns nil rather than the slot's new
// tenant — which is what makes lazy teardown safe: unlink may leave
// references behind in hash chains or fastpath resume points, and they
// all fail closed.
//
// Reclamation is epoch-based (see Gate): Retire unlinks a slot
// logically and parks it in a limbo queue stamped with the current
// epoch; Reclaim returns it to the free-list only after two epoch
// advances, by which point every reader section that could still hold a
// raw pointer into the slot has exited. Until then the slot's contents
// are preserved, so concurrent lock-free readers traversing a chain
// through a retired node still read coherent (if dead) data.
package slab

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Handle addresses a slot in one arena. 0 is the nil handle.
type Handle uint32

// Ref is a generation-tagged slot reference: the long-term form of an
// arena pointer. G records the slot generation at the time the Ref was
// minted (always odd — live); Resolve fails once the slot is retired.
type Ref struct {
	H Handle
	G uint32
}

// IsZero reports whether the ref is the nil reference.
func (r Ref) IsZero() bool { return r.H == 0 }

// Pack encodes the ref into one uint64 for storage in an atomic word
// (handle in the high 32 bits). Unpack inverts it; Pack of the zero Ref
// is 0.
func (r Ref) Pack() uint64 { return uint64(r.H)<<32 | uint64(r.G) }

// Unpack decodes a ref packed by Pack.
func Unpack(v uint64) Ref { return Ref{H: Handle(v >> 32), G: uint32(v)} }

// DefaultChunkLog2 is the default chunk size: 2^10 = 1024 slots per
// chunk. A chunk is what an arena costs before its first slot is used and
// what it wastes at the end, so it is sized for the small cache — a
// dentry-sized arena starts at 164 KB, not 1.3 MB — while a 10M-entry
// cache is still only ~9800 chunk headers behind a 78 KB directory.
// BenchmarkArenaChunkSize is the measurement: against 2^13, Alloc on a
// growing arena reads +4% and Resolve within its noise; at 2^8 Alloc
// reads +20%.
const DefaultChunkLog2 = 10

// Options configures an arena.
type Options struct {
	// ChunkLog2 is log2 of the slots per chunk (0 means
	// DefaultChunkLog2).
	ChunkLog2 int
}

// chunk is one slab: a contiguous run of slots plus their generation
// counters. Chunks are immortal for the arena's lifetime, so interior
// pointers handed out by Get/Resolve stay valid even while the chunk
// directory is republished on growth.
type chunk[T any] struct {
	slots []T
	gens  []atomic.Uint32
}

// limboSlot is a retired slot awaiting its grace period.
type limboSlot struct {
	h     Handle
	epoch uint64
}

// Arena is a typed slab arena. All methods are safe for concurrent use;
// Get and Resolve are lock-free.
type Arena[T any] struct {
	gate *Gate
	log2 uint

	chunks atomic.Pointer[[]*chunk[T]] // copy-on-grow under mu

	mu        sync.Mutex
	free      []Handle
	limbo     []limboSlot
	limboHead int
	next      atomic.Uint32 // bump allocator: slots ever handed out; written under mu

	live      atomic.Int64
	limboLen  atomic.Int64
	freeLen   atomic.Int64
	retired   atomic.Uint64
	reclaimed atomic.Uint64
}

// New builds an arena whose reclamation is driven by gate.
func New[T any](gate *Gate, opts Options) *Arena[T] {
	log2 := opts.ChunkLog2
	if log2 == 0 {
		log2 = DefaultChunkLog2
	}
	a := &Arena[T]{gate: gate, log2: uint(log2)}
	empty := []*chunk[T]{}
	a.chunks.Store(&empty)
	return a
}

// Alloc returns a live slot and its ref. The slot's contents are
// whatever the previous tenant left (or zero for a never-used slot):
// the caller must fully reinitialize it before publishing any reference.
// The returned generation is already stored, so stale refs to the
// previous tenant fail from this moment on.
func (a *Arena[T]) Alloc() (Ref, *T) {
	a.mu.Lock()
	var h Handle
	if n := len(a.free); n > 0 {
		h = a.free[n-1]
		a.free = a.free[:n-1]
		a.freeLen.Add(-1)
	} else {
		h = Handle(a.next.Load() + 1) // handles are 1-based; 0 is nil
		a.grow(h)
		a.next.Store(uint32(h))
	}
	c, slot := a.locate(h)
	g := c.gens[slot].Load() + 1 // even -> odd: live
	c.gens[slot].Store(g)
	a.mu.Unlock()
	a.live.Add(1)
	return Ref{H: h, G: g}, &c.slots[slot]
}

// grow ensures the chunk directory covers handle h. Called under mu.
// The directory doubles in capacity: spare capacity is extended in
// place (readers bound themselves by their snapshot's length, and the
// Store below publishes the new elements with release ordering), so
// growth is amortized O(1) however small the chunks.
func (a *Arena[T]) grow(h Handle) {
	idx := uint32(h-1) >> a.log2
	cur := *a.chunks.Load()
	if int(idx) < len(cur) {
		return
	}
	var next []*chunk[T]
	if int(idx) < cap(cur) {
		next = cur[:idx+1]
	} else {
		newCap := 2 * cap(cur)
		if newCap < int(idx)+1 {
			newCap = int(idx) + 1
		}
		next = make([]*chunk[T], idx+1, newCap)
		copy(next, cur)
	}
	for i := len(cur); i <= int(idx); i++ {
		n := 1 << a.log2
		next[i] = &chunk[T]{slots: make([]T, n), gens: make([]atomic.Uint32, n)}
	}
	a.chunks.Store(&next)
}

// locate maps a handle to its chunk and intra-chunk slot index. Callers
// must know h is within the allocated range.
func (a *Arena[T]) locate(h Handle) (*chunk[T], uint32) {
	idx := uint32(h - 1)
	return (*a.chunks.Load())[idx>>a.log2], idx & (1<<a.log2 - 1)
}

// Get returns the slot for h regardless of generation (nil for the nil
// handle or an out-of-range handle). Use only where liveness is
// established by other means; prefer Resolve.
func (a *Arena[T]) Get(h Handle) *T {
	if h == 0 {
		return nil
	}
	idx := uint32(h - 1)
	chunks := *a.chunks.Load()
	ci := idx >> a.log2
	if int(ci) >= len(chunks) {
		return nil
	}
	return &chunks[ci].slots[idx&(1<<a.log2-1)]
}

// GenOf returns the current generation of h's slot (odd = live), or 0
// for an invalid handle.
func (a *Arena[T]) GenOf(h Handle) uint32 {
	if h == 0 {
		return 0
	}
	idx := uint32(h - 1)
	chunks := *a.chunks.Load()
	ci := idx >> a.log2
	if int(ci) >= len(chunks) {
		return 0
	}
	return chunks[ci].gens[idx&(1<<a.log2-1)].Load()
}

// HighWater returns the largest handle Alloc has ever returned (0 for an
// untouched arena): handles 1..HighWater are the slots a scan of the arena
// has to visit, each live, in limbo or free.
func (a *Arena[T]) HighWater() Handle { return Handle(a.next.Load()) }

// Resolve returns the slot for r only if the slot still holds the
// generation the ref was minted with (i.e. the same tenant, still
// live). A ref to a retired or recycled slot returns nil.
func (a *Arena[T]) Resolve(r Ref) *T {
	if r.H == 0 || r.G&1 == 0 {
		return nil
	}
	idx := uint32(r.H - 1)
	chunks := *a.chunks.Load()
	ci := idx >> a.log2
	if int(ci) >= len(chunks) {
		return nil
	}
	c := chunks[ci]
	si := idx & (1<<a.log2 - 1)
	if c.gens[si].Load() != r.G {
		return nil
	}
	return &c.slots[si]
}

// Retire marks r's slot dead (generation odd -> even, so every
// outstanding Ref stops resolving) and parks it in limbo stamped with
// the current epoch. Idempotent: retiring an already-retired ref is a
// no-op. The slot's contents are preserved until the slot is reused, so
// in-section readers holding a raw pointer still see coherent data.
func (a *Arena[T]) Retire(r Ref) {
	if r.H == 0 || r.G&1 == 0 {
		return
	}
	c, slot := a.locate(r.H)
	if !c.gens[slot].CompareAndSwap(r.G, r.G+1) {
		return // already retired (or recycled) by someone else
	}
	a.live.Add(-1)
	a.retired.Add(1)
	e := a.gate.Current()
	a.mu.Lock()
	a.limbo = append(a.limbo, limboSlot{h: r.H, epoch: e})
	a.mu.Unlock()
	a.limboLen.Add(1)
}

// Reclaim processes up to max limbo entries whose grace period has
// elapsed (retire epoch + 2 <= current epoch), returning them to the
// free-list. It nudges the epoch clock forward first. Returns the number
// of slots reclaimed.
func (a *Arena[T]) Reclaim(max int) int {
	if a.limboLen.Load() == 0 {
		return 0 // nothing aging; skip the epoch nudge and the lock
	}
	a.gate.TryAdvance()
	cur := a.gate.Current()
	n := 0
	a.mu.Lock()
	for a.limboHead < len(a.limbo) && n < max {
		ls := a.limbo[a.limboHead]
		if ls.epoch+2 > cur {
			break // limbo is FIFO in epoch order; the rest are younger
		}
		a.limboHead++
		a.free = append(a.free, ls.h)
		a.freeLen.Add(1)
		n++
	}
	if a.limboHead == len(a.limbo) && a.limboHead > 0 {
		a.limbo = a.limbo[:0]
		a.limboHead = 0
	} else if a.limboHead > 4096 {
		a.limbo = append(a.limbo[:0], a.limbo[a.limboHead:]...)
		a.limboHead = 0
	}
	a.mu.Unlock()
	if n > 0 {
		a.reclaimed.Add(uint64(n))
		a.limboLen.Add(int64(-n))
	}
	return n
}

// Stats is a point-in-time snapshot of arena occupancy.
type Stats struct {
	// Chunks is the number of allocated slabs; Slots their total
	// capacity; Bytes what the slots and their generation words occupy.
	Chunks, Slots int
	Bytes         int64
	// Live is the number of in-use slots; Free the free-list depth;
	// Limbo the retired-awaiting-grace count.
	Live, Free, Limbo int64
	// Retired and Reclaimed are cumulative counters.
	Retired, Reclaimed uint64
}

// Stats snapshots the arena.
func (a *Arena[T]) Stats() Stats {
	chunks := *a.chunks.Load()
	slots := len(chunks) << a.log2
	var zero T
	return Stats{
		Chunks:    len(chunks),
		Slots:     slots,
		Bytes:     int64(slots) * int64(unsafe.Sizeof(zero)+unsafe.Sizeof(atomic.Uint32{})),
		Live:      a.live.Load(),
		Free:      a.freeLen.Load(),
		Limbo:     a.limboLen.Load(),
		Retired:   a.retired.Load(),
		Reclaimed: a.reclaimed.Load(),
	}
}
