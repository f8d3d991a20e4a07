package vfs

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"dircache/internal/slab"
)

// TableNode is one chain node: pointer-free, stored in a slab arena and
// linked by handles, so the GC sees chunk headers instead of one object per
// entry. The dentry is a generation-tagged packed ref — once its slot is
// retired the ref stops resolving, so a stale node invalidates itself
// instead of aliasing the slot's next tenant. Fields are written before the
// node is published and frozen thereafter; removal unlinks it in place, and
// a reader already on it keeps a coherent view, because contents and link
// survive until the grace period ends and the slot is recycled.
type TableNode[K comparable] struct {
	key  K
	dref uint64 // packed slab.Ref of the dentry
	next atomic.Uint32
	// hash is the low half of the hash the entry was filed under, kept in
	// what was padding: probes compare it, and a doubling splits on it.
	hash uint32
}

type tbucket struct {
	mu   sync.Mutex // writers; also the dentry table's readers in SyncBucketLock mode
	head atomic.Uint32
}

// Table is the slab-chained hash table both of the cache's indexes are: the
// dentry hashtable keyed by (parent, name) that the slow walk probes, and
// the paper's direct lookup hash table (§3.1) keyed by full-path signature.
// Chains are prepend-on-insert, readers are lock-free inside an epoch
// section, and dead or unresolvable entries are skipped, not terminal:
// teardown is lazy, so a dead node stays chained until the next insert
// into its bucket or the next doubling drops it, or a Remove takes it out.
//
// A table is sized by what it holds (DESIGN §5c has the reasoning and the
// measurements): it starts at tableMinBuckets and doubles whenever the
// nodes linked into it outnumber its buckets, up to its ceiling if it has
// one, so below the ceiling the mean chain is at most one node; it never
// shrinks. One resizer at a time (growMu) locks every bucket of the
// current array, copies each chain's live nodes into an array of twice the
// size using fresh nodes — old bucket i splits into new buckets i and
// i+len, in chain order — publishes it with one store, unlocks, and retires
// the old nodes through the arena's epoch gate. Writers re-check the array pointer after
// locking a bucket and start over if it moved, so nothing is ever linked
// into or unlinked from a superseded array: a lock-free reader that loaded
// the old pointer probes chains frozen exactly as they were copied, intact
// until every section from the resize's epoch has exited, and pays for
// resizing with one extra pointer load per probe and nothing else.
type Table[K comparable] struct {
	buckets    atomic.Pointer[[]tbucket] // power-of-two length; replaced under growMu
	nodes      *slab.Arena[TableNode[K]]
	dentries   *slab.Arena[Dentry]
	maxBuckets int // the array stops doubling here; 0 = no ceiling

	// What only writers touch sits a cache line away: every probe loads the
	// fields above, and every insert and remove writes entries.
	_       [64]byte
	growMu  sync.Mutex
	entries atomic.Int64 // chain nodes linked, dead leftovers included
	resizes atomic.Uint64
	sweeps  atomic.Uint64 // dead nodes inserts swept and doublings dropped
}

// tableMinBuckets is the size of a new table: 12 KB, a thousand entries
// before the first doubling.
const tableMinBuckets = 1 << 10

// NewTable returns an empty table of k's dentries whose chain nodes come
// from nodes (tables may share an arena). maxBuckets is the instantiation's
// ceiling, a power of two from tableMinBuckets to 1<<31, or 0 for none.
func NewTable[K comparable](k *Kernel, nodes *slab.Arena[TableNode[K]], maxBuckets int) *Table[K] {
	t := &Table[K]{nodes: nodes, dentries: k.dentries, maxBuckets: maxBuckets}
	bs := make([]tbucket, tableMinBuckets)
	t.buckets.Store(&bs)
	return t
}

// lockBucket locks and returns hash's bucket in the current array. A
// resize holds every old bucket's lock until its array is published, so a
// bucket locked here while the pointer still names its array is current
// for as long as the lock is held.
func (t *Table[K]) lockBucket(hash uint64) *tbucket {
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

// live resolves a node's dentry, or nil when its slot has been retired or
// recycled (generation mismatch) or the dentry is dead.
func (t *Table[K]) live(dref uint64) *Dentry {
	if d := t.dentries.Resolve(slab.Unpack(dref)); d != nil && !d.IsDead() {
		return d
	}
	return nil
}

// Lookup returns the live dentry filed under (hash, key), or nil: an entry
// is found under the hash it was inserted with (the DLHT's is not a function
// of its key). Lock-free; the caller is inside an epoch section (every walk
// is).
func (t *Table[K]) Lookup(hash uint64, key K) *Dentry {
	bs := *t.buckets.Load()
	for h := bs[hash&uint64(len(bs)-1)].head.Load(); h != 0; {
		n := t.nodes.Get(slab.Handle(h))
		if n.hash == uint32(hash) && n.key == key {
			if d := t.live(n.dref); d != nil {
				return d
			}
		}
		h = n.next.Load()
	}
	return nil
}

// Insert files d under key and reports how many dead nodes it swept from
// the bucket on the way: it holds the bucket's lock already, so a chain
// collects no more dead nodes than arrive between two inserts. The caller
// guarantees no live entry for the key is present. The insert that takes
// the entry count past the bucket count doubles the table on its way out.
func (t *Table[K]) Insert(hash uint64, key K, d *Dentry) (swept int) {
	r, n := t.nodes.Alloc()
	n.key, n.dref, n.hash = key, d.self.Pack(), uint32(hash)
	b := t.lockBucket(hash)
	swept = t.unlink(b, true, func(c *TableNode[K]) bool { return t.live(c.dref) == nil })
	n.next.Store(b.head.Load())
	b.head.Store(uint32(r.H))
	b.mu.Unlock()
	if swept > 0 {
		t.sweeps.Add(uint64(swept))
	}
	if t.overfull(t.entries.Add(int64(1-swept)), len(*t.buckets.Load())) {
		t.grow()
	}
	return swept
}

// Remove unlinks the entry for (key, d) in place, if there is one.
func (t *Table[K]) Remove(hash uint64, key K, d *Dentry) {
	want := d.self.Pack()
	b := t.lockBucket(hash)
	n := t.unlink(b, false, func(c *TableNode[K]) bool { return c.dref == want && c.key == key })
	b.mu.Unlock()
	t.entries.Add(int64(-n))
}

// unlink takes the nodes match accepts — all of them, or only the first —
// out of b's chain, which the caller has locked, retires their slots into
// the arena's grace-period limbo and returns how many there were.
func (t *Table[K]) unlink(b *tbucket, all bool, match func(*TableNode[K]) bool) int {
	removed := 0
	link := &b.head
	for h := link.Load(); h != 0; h = link.Load() {
		n := t.nodes.Get(slab.Handle(h))
		if !match(n) {
			link = &n.next
			continue
		}
		link.Store(n.next.Load())
		t.nodes.Retire(slab.Ref{H: slab.Handle(h), G: t.nodes.GenOf(slab.Handle(h))})
		removed++
		if !all {
			break
		}
	}
	return removed
}

// scan is the table's one chain iterator: every node of bs, bucket by
// bucket in chain order, until fn returns false. A node's link is read
// before fn sees it, so fn may retire it.
func (t *Table[K]) scan(bs []tbucket, fn func(bucket int, h slab.Handle, n *TableNode[K]) bool) {
	for i := range bs {
		for h := bs[i].head.Load(); h != 0; {
			n := t.nodes.Get(slab.Handle(h))
			next := n.next.Load()
			if !fn(i, slab.Handle(h), n) {
				return
			}
			h = next
		}
	}
}

// Scan calls fn for every chain node of the current array, with the hash
// it was filed under and the dentry its ref resolves to — dead ones included, nil for a retired slot: the
// auditors' raw view — until fn returns false. The caller holds an epoch
// section. Lock-free, so it may observe concurrent inserts and removes; a
// scan that a grow overtakes finishes on the array it started with.
func (t *Table[K]) Scan(fn func(hash uint32, key K, dref slab.Ref, d *Dentry) bool) {
	t.scan(*t.buckets.Load(), func(_ int, _ slab.Handle, n *TableNode[K]) bool {
		dref := slab.Unpack(n.dref)
		return fn(n.hash, n.key, dref, t.dentries.Resolve(dref))
	})
}

func (t *Table[K]) overfull(entries int64, buckets int) bool {
	return entries > int64(buckets) && buckets != t.maxBuckets
}

// grow doubles the table if it is still over its load factor and under
// its ceiling (the protocol is on Table). The copy is O(entries) once per
// doubling, so Insert stays amortized O(1). A node whose dentry is dead or
// whose slot was retired is not copied: every bucket is locked, so this is
// the one moment the whole table can be swept at once.
func (t *Table[K]) grow() {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	old := *t.buckets.Load()
	if !t.overfull(t.entries.Load(), len(old)) {
		return // a concurrent insert's grow already made room
	}
	for i := range old {
		old[i].mu.Lock()
	}
	next := make([]tbucket, 2*len(old))
	// Old bucket i feeds new buckets i and i+len(old), selected by the hash
	// bit the wider mask adds; each is appended to in chain order.
	var tails [2]*atomic.Uint32
	cur, dropped := -1, 0
	t.scan(old, func(i int, _ slab.Handle, o *TableNode[K]) bool {
		if i != cur {
			cur, tails = i, [2]*atomic.Uint32{&next[i].head, &next[i+len(old)].head}
		}
		if t.live(o.dref) == nil {
			dropped++
			return true
		}
		r, n := t.nodes.Alloc()
		n.key, n.dref, n.hash = o.key, o.dref, o.hash
		n.next.Store(0)
		half := 0
		if int(o.hash)&len(old) != 0 {
			half = 1
		}
		tails[half].Store(uint32(r.H))
		tails[half] = &n.next
		return true
	})
	t.buckets.Store(&next)
	t.resizes.Add(1)
	t.entries.Add(int64(-dropped))
	t.sweeps.Add(uint64(dropped))
	for i := range old {
		old[i].mu.Unlock()
	}
	// The old chains are frozen, and scan reads a node before fn retires
	// it, so this walk needs no section of its own.
	t.scan(old, func(_ int, h slab.Handle, _ *TableNode[K]) bool {
		t.nodes.Retire(slab.Ref{H: h, G: t.nodes.GenOf(h)})
		return true
	})
}

// TableStats describes one table's bucket array, or several tables'
// summed. Entries counts the chain nodes linked into it (they live in the
// node arena); below the ceiling Entries <= Buckets once an insert returns.
type TableStats struct {
	Buckets int64  `json:"buckets"`
	Entries int64  `json:"entries"`
	Resizes uint64 `json:"resizes"` // doublings so far; a table never shrinks
	Sweeps  uint64 `json:"sweeps"`  // dead nodes swept by inserts or dropped by doublings
	Bytes   int64  `json:"bytes"`   // the bucket array alone
}

// Stats snapshots the table's size and growth.
func (t *Table[K]) Stats() TableStats {
	n := int64(len(*t.buckets.Load()))
	return TableStats{
		Buckets: n,
		Entries: t.entries.Load(),
		Resizes: t.resizes.Load(),
		Sweeps:  t.sweeps.Load(),
		Bytes:   n * int64(unsafe.Sizeof(tbucket{})),
	}
}

// Add accumulates o into s (a System's DLHTs are reported as one).
func (s *TableStats) Add(o TableStats) {
	s.Buckets += o.Buckets
	s.Entries += o.Entries
	s.Resizes += o.Resizes
	s.Sweeps += o.Sweeps
	s.Bytes += o.Bytes
}

// ChainShape is a table's occupancy and the distribution of live chain
// lengths over its current array (the §6.5 bucket-utilization datum).
type ChainShape struct {
	Buckets     int `json:"buckets"`
	Entries     int `json:"entries"`      // live entries seen by the scan
	Dead        int `json:"dead"`         // torn-down nodes still chained, not yet swept
	UsedBuckets int `json:"used_buckets"` // buckets with >= 1 live entry
	Chain1      int `json:"chain_1"`      // used buckets with exactly 1 live entry
	Chain2      int `json:"chain_2"`
	ChainLonger int `json:"chain_longer"`
	MaxChain    int `json:"max_chain"`
	Collisions  int `json:"collisions"` // live entries sharing a bucket
}

// Shape walks every chain and reports the distribution. Lock-free and
// approximate under concurrency; the caller holds an epoch section.
func (t *Table[K]) Shape() (s ChainShape) {
	bs := *t.buckets.Load()
	s.Buckets = len(bs)
	cur, live := -1, 0
	tally := func() {
		switch {
		case live == 1:
			s.Chain1++
		case live == 2:
			s.Chain2++
		case live > 2:
			s.ChainLonger++
		}
		s.MaxChain = max(s.MaxChain, live)
		s.Entries += live
		live = 0
	}
	t.scan(bs, func(i int, _ slab.Handle, n *TableNode[K]) bool {
		if i != cur {
			tally()
			cur = i
		}
		if t.live(n.dref) != nil {
			live++
		} else {
			s.Dead++
		}
		return true
	})
	tally()
	s.UsedBuckets = s.Chain1 + s.Chain2 + s.ChainLonger
	s.Collisions = s.Entries - s.Chain1
	return s
}
