package vfs

import (
	"sync"
	"sync/atomic"

	"dircache/internal/slab"
)

// SyncMode selects the synchronization era of the dentry hash table,
// reproducing the progression Figure 2 of the paper charts across Linux
// releases.
type SyncMode int

const (
	// SyncRCU (the 3.14 baseline): lock-free readers over atomic bucket
	// chains, with a global rename sequence counter validated around each
	// walk and a reader-writer fallback (RCU-walk → ref-walk).
	SyncRCU SyncMode = iota
	// SyncBucketLock (the ~3.0 era): readers take a per-bucket lock for
	// each hash probe.
	SyncBucketLock
	// SyncBigLock (the 2.6.36 era): one global lock serializes every
	// directory cache operation.
	SyncBigLock
)

func (m SyncMode) String() string {
	switch m {
	case SyncRCU:
		return "rcu"
	case SyncBucketLock:
		return "bucketlock"
	case SyncBigLock:
		return "biglock"
	}
	return "unknown"
}

// tnode is one chain node of the dcache hash table, stored in a slab
// arena and linked by handles rather than pointers, so the GC sees chunk
// headers instead of one object per cached name. A node's fields are
// written before it is published into a chain and frozen thereafter;
// removal unlinks the node in place (readers inside an epoch section may
// keep traversing through it — its contents and next link survive until
// the grace period ends and the slot is recycled). This replaces the old
// copy-on-write chain rebuild: removal is O(position) pointer chasing
// with zero allocation, which is what makes bulk teardown (rm -r) cheap.
type tnode struct {
	parentID uint64
	name     string
	dref     uint64 // packed slab.Ref of the dentry
	next     atomic.Uint32
}

type tbucket struct {
	mu   sync.Mutex // writers; also readers in SyncBucketLock mode
	head atomic.Uint32
}

// hashTable is the (parent dentry, component name)-keyed dentry index: the
// structure Linux calls the dentry hashtable, here with a selectable
// synchronization era and slab-backed chains.
type hashTable struct {
	mode     SyncMode
	buckets  []tbucket
	nodes    *slab.Arena[tnode]
	dentries *slab.Arena[Dentry]
}

// hashBuckets is the bucket count: Linux's default dentry_hashtable
// order. A power of two, so hash&(hashBuckets-1) selects a bucket.
const hashBuckets = 1 << 18

func newHashTable(mode SyncMode, nodes *slab.Arena[tnode], dentries *slab.Arena[Dentry]) *hashTable {
	return &hashTable{
		mode:     mode,
		buckets:  make([]tbucket, hashBuckets),
		nodes:    nodes,
		dentries: dentries,
	}
}

// hashKey mixes (parentID, name) FNV-style, standing in for Linux's
// full_name_hash over the parent pointer and component.
func hashKey(parentID uint64, name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h ^= parentID
	h *= prime
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

// lookup finds the live dentry for (parentID, name), or nil. Dead or
// stale-slot entries are skipped, not terminal: teardown is lazy, so a
// chain may hold a dead node for the key while a fresh live one (always
// prepended, hence found first) coexists. In SyncBucketLock mode the
// bucket lock is held for the probe; in the other modes the probe is
// lock-free (SyncBigLock relies on the kernel-wide lock held by the
// caller). Callers are inside an epoch section.
func (t *hashTable) lookup(parentID uint64, name string) *Dentry {
	b := &t.buckets[hashKey(parentID, name)&(hashBuckets-1)]
	if t.mode == SyncBucketLock {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	for h := b.head.Load(); h != 0; {
		n := t.nodes.Get(slab.Handle(h))
		if n.parentID == parentID && n.name == name {
			if d := t.dentries.Resolve(slab.Unpack(n.dref)); d != nil && !d.IsDead() {
				return d
			}
		}
		h = n.next.Load()
	}
	return nil
}

// insert adds d under (parentID, name). The caller guarantees no live
// entry for the key is present (dcache insertions happen under the
// parent's lock); a dead entry awaiting the sweeper may linger further
// down the chain and is shadowed by the prepend.
func (t *hashTable) insert(parentID uint64, name string, d *Dentry) {
	r, n := t.nodes.Alloc()
	n.parentID = parentID
	n.name = name
	n.dref = d.self.Pack()
	b := &t.buckets[hashKey(parentID, name)&(hashBuckets-1)]
	b.mu.Lock()
	n.next.Store(b.head.Load())
	b.head.Store(uint32(r.H))
	b.mu.Unlock()
}

// remove unlinks the entry for (parentID, name, d) in place and retires
// its node to the arena's limbo. Concurrent lock-free readers that
// already stepped onto the node keep a coherent view: its fields and
// next link are preserved until every section from its epoch has exited.
func (t *hashTable) remove(parentID uint64, name string, d *Dentry) {
	want := d.self.Pack()
	b := &t.buckets[hashKey(parentID, name)&(hashBuckets-1)]
	b.mu.Lock()
	var prev *tnode
	for h := b.head.Load(); h != 0; {
		n := t.nodes.Get(slab.Handle(h))
		if n.parentID == parentID && n.name == name && n.dref == want {
			next := n.next.Load()
			if prev == nil {
				b.head.Store(next)
			} else {
				prev.next.Store(next)
			}
			b.mu.Unlock()
			t.nodes.Retire(slab.Ref{H: slab.Handle(h), G: t.nodes.GenOf(slab.Handle(h))})
			return
		}
		prev = n
		h = n.next.Load()
	}
	b.mu.Unlock()
}

// stats walks every bucket and reports chain length distribution (used by
// the evaluation discussion of bucket utilization in §6.5). The caller
// holds an epoch section.
func (t *hashTable) chainStats() (empty, one, two, more int) {
	for i := range t.buckets {
		n := 0
		for h := t.buckets[i].head.Load(); h != 0; {
			c := t.nodes.Get(slab.Handle(h))
			n++
			h = c.next.Load()
		}
		switch {
		case n == 0:
			empty++
		case n == 1:
			one++
		case n == 2:
			two++
		default:
			more++
		}
	}
	return
}

// forEachRef calls fn for every chain node's (parentID, name, dref)
// triple — the auditor's raw view for the slab_liveness check. The
// caller holds an epoch section; the scan is lock-free and may observe
// concurrent inserts/removes (the auditor's coherence stamp discards
// such passes).
func (t *hashTable) forEachRef(fn func(parentID uint64, name string, dref slab.Ref) bool) {
	for i := range t.buckets {
		for h := t.buckets[i].head.Load(); h != 0; {
			c := t.nodes.Get(slab.Handle(h))
			if !fn(c.parentID, c.name, slab.Unpack(c.dref)) {
				return
			}
			h = c.next.Load()
		}
	}
}
