package vfs

import (
	"sync"
	"sync/atomic"
	"unsafe"

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
//
// Sizing. Linux sizes dentry_hashtable once at boot from the machine's
// memory (dhash_entries scales with RAM); a System here is one of many in
// a process (a shard, a test, a benchmark arm), so the table is sized by
// what it holds instead. It starts at tableMinBuckets and doubles whenever
// the chain nodes linked into it outnumber its buckets: the load factor
// stays in (1/2, 1] while the table grows, so the mean chain is at most one
// node at any entry count, and a table of n entries costs 12 bytes × the
// power of two in [n, 2n). It never shrinks: a cache that emptied keeps the
// array its peak needed (at most 24 bytes per entry of that peak), and
// nothing on the read side has to know about a second kind of resize.
//
// Resize protocol (grow). One resizer at a time (growMu). It locks every
// bucket of the current array, in index order, and with all of them held
// copies each chain into a new array of twice the size using fresh tnodes
// — old bucket i splits into new buckets i and i+len, each keeping the old
// chain's relative order, so a live node still precedes a dead node for
// the same key. It publishes the finished array with one store, unlocks
// the old buckets, and retires the old nodes through the arena's epoch
// gate. Writers (and SyncBucketLock readers) re-check the array pointer
// after locking a bucket and start over if it moved, so nothing is ever
// linked into or unlinked from a superseded array: its chains are frozen
// exactly as they were copied. A lock-free reader that loaded the old
// pointer therefore probes an intact chain whose nodes keep their fields
// and links until every section from the resize's epoch has exited — a
// key resident for the whole probe is in that chain — and pays for the
// resize with one extra pointer load per probe and nothing else.
type hashTable struct {
	mode     SyncMode
	buckets  atomic.Pointer[[]tbucket] // power-of-two length; replaced under growMu
	nodes    *slab.Arena[tnode]
	dentries *slab.Arena[Dentry]

	// What only writers touch sits a cache line away: every probe loads the
	// fields above, and every insert and remove writes entries.
	_       [64]byte
	growMu  sync.Mutex
	entries atomic.Int64 // chain nodes linked, dead leftovers included
	resizes atomic.Uint64
}

// tableMinBuckets is the size of a new table: 12 KB, a thousand names
// before the first doubling.
const tableMinBuckets = 1 << 10

func newHashTable(mode SyncMode, nodes *slab.Arena[tnode], dentries *slab.Arena[Dentry]) *hashTable {
	t := &hashTable{mode: mode, nodes: nodes, dentries: dentries}
	bs := make([]tbucket, tableMinBuckets)
	t.buckets.Store(&bs)
	return t
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

// lockBucket locks and returns hash's bucket in the current array. A
// resize holds every old bucket's lock until its array is published, so a
// bucket locked here while the pointer still names its array is current
// for as long as the lock is held.
func (t *hashTable) lockBucket(hash uint64) *tbucket {
	for {
		p := t.buckets.Load()
		b := &(*p)[hash&uint64(len(*p)-1)]
		b.mu.Lock()
		if t.buckets.Load() == p {
			return b
		}
		b.mu.Unlock()
	}
}

// lookup finds the live dentry for (parentID, name), or nil. Dead or
// stale-slot entries are skipped, not terminal: teardown is lazy, so a
// chain may hold a dead node for the key while a fresh live one (always
// prepended, hence found first) coexists. In SyncBucketLock mode the
// bucket lock is held for the probe; in the other modes the probe is
// lock-free (SyncBigLock relies on the kernel-wide lock held by the
// caller) and may run on an array a concurrent grow has just superseded,
// whose chains stay intact for the section. Callers are inside an epoch
// section.
func (t *hashTable) lookup(parentID uint64, name string) *Dentry {
	hash := hashKey(parentID, name)
	var b *tbucket
	if t.mode == SyncBucketLock {
		b = t.lockBucket(hash)
		defer b.mu.Unlock()
	} else {
		bs := *t.buckets.Load()
		b = &bs[hash&uint64(len(bs)-1)]
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
// down the chain and is shadowed by the prepend. The insert that takes
// the entry count past the bucket count doubles the table on its way out.
func (t *hashTable) insert(parentID uint64, name string, d *Dentry) {
	r, n := t.nodes.Alloc()
	n.parentID = parentID
	n.name = name
	n.dref = d.self.Pack()
	b := t.lockBucket(hashKey(parentID, name))
	n.next.Store(b.head.Load())
	b.head.Store(uint32(r.H))
	b.mu.Unlock()
	if t.entries.Add(1) > int64(len(*t.buckets.Load())) {
		t.grow()
	}
}

// remove unlinks the entry for (parentID, name, d) in place and retires
// its node to the arena's limbo. Concurrent lock-free readers that
// already stepped onto the node keep a coherent view: its fields and
// next link are preserved until every section from its epoch has exited.
func (t *hashTable) remove(parentID uint64, name string, d *Dentry) {
	want := d.self.Pack()
	b := t.lockBucket(hashKey(parentID, name))
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
			t.entries.Add(-1)
			t.retireNode(slab.Handle(h))
			return
		}
		prev = n
		h = n.next.Load()
	}
	b.mu.Unlock()
}

func (t *hashTable) retireNode(h slab.Handle) {
	t.nodes.Retire(slab.Ref{H: h, G: t.nodes.GenOf(h)})
}

// grow doubles the table if it is still over its load factor (see the
// protocol on hashTable). The copy is O(entries) and runs once per
// doubling, so insert stays amortized O(1).
func (t *hashTable) grow() {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	old := *t.buckets.Load()
	if t.entries.Load() <= int64(len(old)) {
		return // a concurrent insert's grow already made room
	}
	next := make([]tbucket, 2*len(old))
	for i := range old {
		old[i].mu.Lock()
		// Old bucket i feeds new buckets i and i+len(old), selected by the
		// hash bit the wider mask adds; each is appended to in chain order.
		tails := [2]*atomic.Uint32{&next[i].head, &next[i+len(old)].head}
		for h := old[i].head.Load(); h != 0; {
			o := t.nodes.Get(slab.Handle(h))
			r, n := t.nodes.Alloc()
			n.parentID, n.name, n.dref = o.parentID, o.name, o.dref
			n.next.Store(0)
			half := 0
			if hashKey(o.parentID, o.name)&uint64(len(old)) != 0 {
				half = 1
			}
			tails[half].Store(uint32(r.H))
			tails[half] = &n.next
			h = o.next.Load()
		}
	}
	t.buckets.Store(&next)
	t.resizes.Add(1)
	for i := range old {
		old[i].mu.Unlock()
	}
	// The old chains are frozen; each node is read before it is retired, so
	// the walk needs no section of its own.
	for i := range old {
		for h := old[i].head.Load(); h != 0; {
			following := t.nodes.Get(slab.Handle(h)).next.Load()
			t.retireNode(slab.Handle(h))
			h = following
		}
	}
}

// TableStats describes the (parent, name) hash table the slow walk probes:
// its bucket array, which starts small and doubles when the chain nodes
// linked into it (Entries; they live in the chain-node arena) outnumber
// the buckets, so Entries <= Buckets once an insert returns.
type TableStats struct {
	Buckets int64  `json:"buckets"`
	Entries int64  `json:"entries"`
	Resizes uint64 `json:"resizes"` // doublings so far; the table never shrinks
	Bytes   int64  `json:"bytes"`   // the bucket array alone
}

func (t *hashTable) stats() TableStats {
	n := int64(len(*t.buckets.Load()))
	return TableStats{
		Buckets: n,
		Entries: t.entries.Load(),
		Resizes: t.resizes.Load(),
		Bytes:   n * int64(unsafe.Sizeof(tbucket{})),
	}
}

// chainStats walks every bucket of the current array and reports chain
// length distribution (used by the evaluation discussion of bucket
// utilization in §6.5). The caller holds an epoch section.
func (t *hashTable) chainStats() (empty, one, two, more int) {
	bs := *t.buckets.Load()
	for i := range bs {
		n := 0
		for h := bs[i].head.Load(); h != 0; {
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
// such passes), and one that a grow overtakes finishes on the array it
// started with, whose chains hold what the new one was copied from.
func (t *hashTable) forEachRef(fn func(parentID uint64, name string, dref slab.Ref) bool) {
	bs := *t.buckets.Load()
	for i := range bs {
		for h := bs[i].head.Load(); h != 0; {
			c := t.nodes.Get(slab.Handle(h))
			if !fn(c.parentID, c.name, slab.Unpack(c.dref)) {
				return
			}
			h = c.next.Load()
		}
	}
}
