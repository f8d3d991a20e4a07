package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// dnode is one chain node of the direct lookup hash table, carved out of
// the core's shared slab arena and linked by 32-bit handles. The dentry
// is held as a generation-tagged packed ref, not a pointer: when its slab
// slot is retired and recycled the ref stops resolving, so a stale chain
// node self-invalidates instead of aliasing the slot's next tenant. The
// node struct is pointer-free, which is the point — the GC scans chunk
// headers, not millions of chain nodes.
type dnode struct {
	sg   sig.Signature
	dref uint64        // packed slab.Ref of the dentry (kernel arena)
	next atomic.Uint32 // handle of the next node; 0 = end of chain
}

// DLHT is the direct lookup hash table (§3.1): a system-wide (per mount
// namespace, §4.3) table mapping 240-bit full-path signatures to dentries.
// The 16-bit index peeled from the hash selects the bucket; the stored
// signature is compared with four word compares instead of a string
// compare. Chains are prepend-on-insert with in-place unlink on remove:
// lock-free readers stay coherent because an unlinked node's fields and
// next-link survive until the epoch gate's grace period has passed every
// reader that could still be traversing it.
type DLHT struct {
	buckets []atomic.Uint32 // head handles into nodes; 0 = empty
	locks   []sync.Mutex    // writer locks, sharded

	nodes *slab.Arena[dnode]
	k     *vfs.Kernel // resolves drefs against the dentry arena

	entries atomic.Int64
	sweeps  atomic.Int64 // dead nodes reclaimed by inserts

	// tel, when set, resolves the owning kernel's telemetry subsystem so
	// inserts can journal the dead-node sweeps they perform. Written once
	// before the table is published to its namespace; nil in unit tests.
	tel func() *telemetry.Telemetry
}

const dlhtLockShards = 256

func newDLHT(nodes *slab.Arena[dnode], k *vfs.Kernel) *DLHT {
	return &DLHT{
		buckets: make([]atomic.Uint32, 1<<sig.IndexBits),
		locks:   make([]sync.Mutex, dlhtLockShards),
		nodes:   nodes,
		k:       k,
	}
}

func (h *DLHT) lockFor(idx uint16) *sync.Mutex {
	return &h.locks[idx%dlhtLockShards]
}

// resolveLive returns the live dentry a node's ref names, or nil when the
// slot has been retired/recycled (generation mismatch) or the dentry is
// dead. Lazy teardown leaves dead nodes chained; callers skip them.
func (h *DLHT) resolveLive(n *dnode) *vfs.Dentry {
	d := h.k.DentryFromRef(slab.Unpack(n.dref))
	if d == nil || d.IsDead() {
		return nil
	}
	return d
}

// Lookup returns the live dentry stored under (idx, sg), or nil.
// Lock-free; the caller must hold an epoch section (every walk does).
// Dead or unresolvable nodes are skipped, not terminal: a re-created path
// prepends a fresh node ahead of its dead predecessor.
func (h *DLHT) Lookup(idx uint16, sg sig.Signature) *vfs.Dentry {
	for hn := slab.Handle(h.buckets[idx].Load()); hn != 0; {
		n := h.nodes.Get(hn)
		next := slab.Handle(n.next.Load())
		if n.sg == sg {
			if d := h.resolveLive(n); d != nil {
				return d
			}
		}
		hn = next
	}
	return nil
}

// Insert adds (idx, sg) → d. The caller serializes per-dentry insertion
// (each dentry is in at most one DLHT at a time, guarded by its fastDentry
// lock), but distinct dentries may insert concurrently. Insertion sweeps
// the bucket's dead nodes (lazy teardown leaves them behind; lookups skip
// them) by unlinking them in place and retiring their slots into the
// arena's grace-period limbo — a bulk free-list refill, not per-object
// garbage.
func (h *DLHT) Insert(idx uint16, sg sig.Signature, d *vfs.Dentry) {
	mu := h.lockFor(idx)
	mu.Lock()
	swept := 0
	prev := slab.Handle(0)
	for hn := slab.Handle(h.buckets[idx].Load()); hn != 0; {
		n := h.nodes.Get(hn)
		next := slab.Handle(n.next.Load())
		if h.resolveLive(n) == nil {
			if prev == 0 {
				h.buckets[idx].Store(uint32(next))
			} else {
				h.nodes.Get(prev).next.Store(uint32(next))
			}
			h.nodes.Retire(slab.Ref{H: hn, G: h.nodes.GenOf(hn)})
			swept++
		} else {
			prev = hn
		}
		hn = next
	}
	r, n := h.nodes.Alloc()
	n.sg = sg
	n.dref = d.SelfRef().Pack()
	n.next.Store(h.buckets[idx].Load())
	h.buckets[idx].Store(uint32(r.H))
	mu.Unlock()
	h.entries.Add(int64(1 - swept))
	if swept > 0 {
		h.sweeps.Add(int64(swept))
		if h.tel != nil {
			if t := h.tel(); t.On() {
				t.Emit(telemetry.JDLHTSweep, uint64(idx), int64(swept), telemetry.NoteNone)
			}
		}
	}
}

// Remove deletes the entry for (idx, sg, d) by direct in-place unlink —
// no chain-prefix copying. Concurrent readers mid-chain keep a coherent
// view: the unlinked node's fields live on until its grace period ends.
func (h *DLHT) Remove(idx uint16, sg sig.Signature, d *vfs.Dentry) {
	dref := d.SelfRef().Pack()
	mu := h.lockFor(idx)
	mu.Lock()
	prev := slab.Handle(0)
	for hn := slab.Handle(h.buckets[idx].Load()); hn != 0; {
		n := h.nodes.Get(hn)
		next := slab.Handle(n.next.Load())
		if n.sg == sg && n.dref == dref {
			if prev == 0 {
				h.buckets[idx].Store(uint32(next))
			} else {
				h.nodes.Get(prev).next.Store(uint32(next))
			}
			h.nodes.Retire(slab.Ref{H: hn, G: h.nodes.GenOf(hn)})
			mu.Unlock()
			h.entries.Add(-1)
			return
		}
		prev = hn
		hn = next
	}
	mu.Unlock()
}

// Len returns the number of live entries (approximate under concurrency).
func (h *DLHT) Len() int { return int(h.entries.Load()) }

// Sweeps reports how many dead nodes inserts have reclaimed.
func (h *DLHT) Sweeps() int64 { return h.sweeps.Load() }

// DLHTStats snapshots one table's occupancy and chain shape: the
// probe-length distribution (Chain1/2/Longer count used buckets by chain
// length) and how many live entries share a bucket with another live
// entry — the 16-bit-index collisions the paper's signature budget
// accepts. Gathered lock-free; approximate under concurrency.
type DLHTStats struct {
	Entries     int   `json:"entries"`      // live entries seen by the scan
	Dead        int   `json:"dead"`         // lazily-reclaimed dead nodes still chained
	UsedBuckets int   `json:"used_buckets"` // buckets with >= 1 live entry
	Chain1      int   `json:"chain_1"`      // used buckets with exactly 1 live entry
	Chain2      int   `json:"chain_2"`
	ChainLonger int   `json:"chain_longer"`
	MaxChain    int   `json:"max_chain"`
	Collisions  int   `json:"collisions"` // live entries sharing a bucket
	Sweeps      int64 `json:"sweeps"`     // cumulative dead-node reclaims
}

// Introspect scans the table and returns its occupancy statistics.
func (h *DLHT) Introspect() DLHTStats {
	ep := h.k.Gate().Enter()
	defer h.k.Gate().Exit(ep)
	var s DLHTStats
	for i := range h.buckets {
		live := 0
		for hn := slab.Handle(h.buckets[i].Load()); hn != 0; {
			n := h.nodes.Get(hn)
			next := slab.Handle(n.next.Load())
			if h.resolveLive(n) == nil {
				s.Dead++
			} else {
				live++
			}
			hn = next
		}
		if live == 0 {
			continue
		}
		s.UsedBuckets++
		s.Entries += live
		switch live {
		case 1:
			s.Chain1++
		case 2:
			s.Chain2++
		default:
			s.ChainLonger++
		}
		if live > s.MaxChain {
			s.MaxChain = live
		}
		if live > 1 {
			s.Collisions += live
		}
	}
	s.Sweeps = h.sweeps.Load()
	return s
}

// auditSlabRefs scans every chain node for the slab_liveness invariant's
// DLHT half: a node's dref may legitimately fail to resolve (lazy
// teardown), but a resolving node must name a dentry that agrees it
// occupies that exact slot — Resolve matching by generation while the
// dentry's own self ref points elsewhere means a slot was recycled under
// a live reference (ABA breach). Returns the number of resolving nodes
// examined; violations go to report.
func (h *DLHT) auditSlabRefs(report func(d *vfs.Dentry, detail string)) int {
	ep := h.k.Gate().Enter()
	defer h.k.Gate().Exit(ep)
	checked := 0
	for i := range h.buckets {
		for hn := slab.Handle(h.buckets[i].Load()); hn != 0; {
			n := h.nodes.Get(hn)
			next := slab.Handle(n.next.Load())
			if d := h.k.DentryFromRef(slab.Unpack(n.dref)); d != nil {
				checked++
				if d.SelfRef().Pack() != n.dref {
					report(d, fmt.Sprintf("DLHT bucket %d node resolves to dentry #%d whose self ref disagrees (recycled slot reached by a live chain node)", i, d.ID()))
				}
			}
			hn = next
		}
	}
	return checked
}

// forEachEntry calls fn for every live (bucket, signature, dentry) entry.
// Lock-free under its own epoch section: concurrent writers may add or
// remove entries around the scan, but every dentry handed to fn stays
// resolvable for the scan's duration.
func (h *DLHT) forEachEntry(fn func(idx uint16, sg sig.Signature, d *vfs.Dentry)) {
	ep := h.k.Gate().Enter()
	defer h.k.Gate().Exit(ep)
	for i := range h.buckets {
		for hn := slab.Handle(h.buckets[i].Load()); hn != 0; {
			n := h.nodes.Get(hn)
			next := slab.Handle(n.next.Load())
			if d := h.resolveLive(n); d != nil {
				fn(uint16(i), n.sg, d)
			}
			hn = next
		}
	}
}
