package vfs

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"dircache/internal/slab"
)

// Link is one table's chain link, embedded in the dentry it chains as
// Linux's d_hash is: next[p] is the next entry's dentry-arena handle (0
// ends the chain) in bucket arrays of parity p, and hash the hash the
// entry is filed under, with the linked bit while it is in a chain. Only
// the table writes them, under a bucket lock.
type Link struct {
	next [2]atomic.Uint32
	hash atomic.Uint32
}

// linked marks a Link that is in a chain. Filed hashes keep the 31 bits
// below it, which is why no table grows past 1<<31 buckets.
const linked = 1 << 31

// InChain reports whether the link is in a chain of some table.
func (l *Link) InChain() bool { return l.hash.Load()&linked != 0 }

// Hash returns the hash the entry was last filed under.
func (l *Link) Hash() uint32 { return l.hash.Load() &^ linked }

type tbucket struct {
	mu   sync.Mutex // writers; also the dentry table's readers in SyncBucketLock mode
	head atomic.Uint32
}

// tarray is one bucket array and the parity of the next words its chains
// are threaded through.
type tarray struct {
	b      []tbucket
	parity int
}

// Table is the intrusive hash table both of the cache's indexes are
// (DESIGN §5c): the (parent, name) dentry hashtable, chained through
// Dentry.hlink, and the paper's DLHT (§3.1), chained through
// FastDentry.Link. A probe filters on the dentry's tag word — the name
// hash in hkey, or the stored signature state's lane 0 — and the owner
// makes the exact check. Readers are lock-free inside an epoch section.
// The table doubles when its entries outnumber its buckets, up to its
// ceiling, threading the chains anew through the next words of the other
// parity, so readers still on the old array find its chains intact. A
// relink in place can divert a reader standing on the entry: into another
// bucket, which sends it back to its own (probe), or another namespace's
// DLHT (holds). What slips past costs a false miss the owner answers from
// an authoritative source; a probe gives up after probeHops entries. A
// slot is never retired while linked (sweepLimbo enforces it), so a probe
// reads a handle's slot with Get, with no generation check.
type Table struct {
	buckets    atomic.Pointer[tarray] // power-of-two length; replaced under growMu
	dentries   *slab.Arena[Dentry]
	dlht       bool // chained through FastDentry.Link and tagged by the state's lane 0
	maxBuckets int  // the array stops doubling here

	// What only writers touch sits a cache line away: every probe loads the
	// fields above, and every insert and remove writes entries.
	_       [64]byte
	gate    *slab.Gate
	growMu  sync.Mutex
	grown   atomic.Uint64 // the epoch the last doubling published its array in
	entries atomic.Int64  // dentries linked, dead ones awaiting the sweeper included
	resizes atomic.Uint64
}

// tableMinBuckets is a new table's size: 12 KB, a thousand entries.
const tableMinBuckets = 1 << 10

// probeHops caps one probe's walk. A chain reaches it legitimately only
// in a DLHT at its 1<<16-bucket ceiling holding some 2^26 entries.
const probeHops = 1 << 10

// newTable returns an empty table of k's dentries; dlht selects the DLHT's
// link and tag. maxBuckets is a power of two, tableMinBuckets to 1<<31.
func newTable(k *Kernel, dlht bool, maxBuckets int) *Table {
	t := &Table{dentries: k.dentries, dlht: dlht, maxBuckets: maxBuckets, gate: k.gate}
	t.buckets.Store(&tarray{b: make([]tbucket, tableMinBuckets)})
	return t
}

// link returns d's link in this kind of table.
func (t *Table) link(d *Dentry) *Link {
	if t.dlht {
		return &d.fast.Link
	}
	return &d.hlink
}

// tag returns the word a probe of this kind of table filters d on.
func (t *Table) tag(d *Dentry) uint64 {
	if t.dlht {
		return d.fast.State.Lane0()
	}
	return d.hkey.Load()
}

// lockBucket locks and returns hash's bucket in the current array, and
// the array. A resize holds every old bucket's lock until its array is
// published, so a bucket locked here while the pointer still names its
// array is current for as long as the lock is held.
func (t *Table) lockBucket(hash uint64) (*tbucket, *tarray) {
	for {
		a := t.buckets.Load()
		b := &a.b[hash&uint64(len(a.b)-1)]
		b.mu.Lock()
		if t.buckets.Load() == a {
			return b, a
		}
		b.mu.Unlock()
	}
}

// Lookup returns the first live dentry in hash's chain whose tag is tag,
// or nil; the caller's exact check decides whether it is the entry
// wanted. Lock-free; the caller is inside an epoch section (every walk
// is).
func (t *Table) Lookup(hash, tag uint64) *Dentry {
	a := t.buckets.Load()
	i := hash & uint64(len(a.b)-1)
	return t.probe(a, i, a.b[i].head.Load(), tag)
}

// probe is Lookup in a's bucket i from handle h on, for at most probeHops
// entries. Insert files an entry before it links it, so an entry filed
// under another bucket once its next word is read may have been relinked
// under the probe, which then starts the bucket's chain again.
func (t *Table) probe(a *tarray, i uint64, h uint32, tag uint64) *Dentry {
	for n := 0; h != 0 && n < probeHops; n++ {
		d := t.dentries.Get(slab.Handle(h))
		if t.tag(d) == tag && !d.IsDead() && (!t.dlht || t.holds(d)) {
			return d
		}
		l := t.link(d)
		if h = l.next[a.parity].Load(); uint64(l.Hash())&uint64(len(a.b)-1) != i {
			h = a.b[i].head.Load()
		}
	}
	return nil
}

// Insert files d under hash, after the caller has set its tag, and
// reports whether it is linked. A dead dentry is refused: the link is
// marked before the flag is read, and a kill sets the flag before its
// sweeper reads the link, so the sweeper never retires a slot linked
// after. A dentry already in a chain stays there (twice would make a
// cycle). An insert past the load factor doubles the table.
func (t *Table) Insert(hash uint64, d *Dentry) bool {
	l := t.link(d)
	b, a := t.lockBucket(hash)
	if l.InChain() {
		b.mu.Unlock()
		return true
	}
	l.hash.Store(uint32(hash)&^linked | linked)
	if d.IsDead() {
		l.hash.Store(uint32(hash) &^ linked)
		b.mu.Unlock()
		return false
	}
	l.next[a.parity].Store(b.head.Load())
	b.head.Store(uint32(d.self.H))
	b.mu.Unlock()
	if t.overfull(t.entries.Add(1), len(a.b)) {
		t.grow()
	} else if t.gate.Current() < t.grown.Load()+2 {
		t.gate.TryAdvance() // ready the clock for the next doubling
	}
	return true
}

// Remove unlinks d in place, if it is in a chain of this table. d keeps
// its next word, so a reader standing on it walks on to its old
// successor.
func (t *Table) Remove(d *Dentry) {
	l := t.link(d)
	hw := l.hash.Load()
	if hw&linked == 0 {
		return
	}
	b, a := t.lockBucket(uint64(hw &^ linked))
	defer b.mu.Unlock()
	if l.hash.Load() != hw {
		return // a racing insert saw d dead and took its mark back
	}
	for at := &b.head; ; {
		h := at.Load()
		if h == 0 {
			return
		}
		if slab.Handle(h) == d.self.H {
			at.Store(l.next[a.parity].Load())
			l.hash.Store(hw &^ linked)
			t.entries.Add(-1)
			return
		}
		at = &t.link(t.dentries.Get(slab.Handle(h))).next[a.parity]
	}
}

// scan is the table's one chain iterator: every entry of a, bucket by
// bucket in chain order, until fn returns false. A chain is cut off after
// probeHops entries, as a probe is.
func (t *Table) scan(a *tarray, fn func(bucket int, d *Dentry) bool) {
	for i := range a.b {
		h := a.b[i].head.Load()
		for n := 0; h != 0 && n < probeHops; n++ {
			d := t.dentries.Get(slab.Handle(h))
			if !fn(i, d) {
				return
			}
			h = t.link(d).next[a.parity].Load()
		}
	}
}

// Scan calls fn for every entry of the current array, dead ones included:
// lock-free in the caller's epoch section, so approximate under writers.
func (t *Table) Scan(fn func(d *Dentry)) {
	t.scan(t.buckets.Load(), func(_ int, d *Dentry) bool { fn(d); return true })
}

// misfiled says what is wrong with d having been reached from bucket of a
// buckets-long array, or "": its slot is not live, it is not marked
// linked or is filed under another bucket, or it is not what its chain
// says — a live dentry whose tag is not its (parent, name)'s hash, or a
// DLHT entry dead (its kill left it linked) or in another table.
func (t *Table) misfiled(buckets, bucket int, d *Dentry) string {
	l := t.link(d)
	switch pn := d.pn.Load(); {
	case t.dentries.Resolve(d.self) != d:
		return "its slot was retired or recycled while linked"
	case !l.InChain():
		return "its link is not marked linked"
	case int(l.Hash())&(buckets-1) != bucket:
		return "it is filed under another bucket"
	case !t.dlht && !d.IsDead() && (pn.parent == nil || d.hkey.Load() != hashKey(pn.parent.id, pn.name)):
		return "its tag is not its (parent, name)'s hash"
	case t.dlht && (d.IsDead() || !t.holds(d)):
		return "it is dead or in another table by its own account"
	}
	return ""
}

// holds reports whether d is in t by its own account: its link marked, or
// for a DLHT its InTable naming t, which a DLHT probe checks: the DLHTs
// share FastDentry.Link, so a relink can divert it (DESIGN §5c).
func (t *Table) holds(d *Dentry) bool {
	if !t.dlht {
		return d.hlink.InChain()
	}
	return d.fast.InTable.Load() == t
}

func (t *Table) overfull(entries int64, buckets int) bool {
	return entries > int64(buckets) && buckets < t.maxBuckets
}

// grow doubles the table if it is still over its load factor and under
// its ceiling, once the readers of the array before the current one are
// gone: every insert since the last doubling nudged the epoch clock toward
// that, and only a reader pinned since holds it back. O(entries).
func (t *Table) grow() {
	for t.gate.Current() < t.grown.Load()+2 {
		if !t.gate.TryAdvance() {
			return
		}
	}
	t.growMu.Lock()
	defer t.growMu.Unlock()
	old := t.buckets.Load()
	if !t.overfull(t.entries.Load(), len(old.b)) || t.gate.Current() < t.grown.Load()+2 {
		return // a concurrent insert's grow already made room
	}
	for i := range old.b {
		old.b[i].mu.Lock()
	}
	t.double(old)
	for i := range old.b {
		old.b[i].mu.Unlock()
	}
}

// double publishes an array twice old's size, its chains threaded through
// the next words of the other parity; the caller holds every bucket of
// old. Old bucket i feeds new buckets i and i+len(old), selected by the
// hash bit the wider mask adds, each appended to in chain order. Old's
// own links are only read.
func (t *Table) double(old *tarray) {
	next := &tarray{b: make([]tbucket, 2*len(old.b)), parity: 1 - old.parity}
	for i := range old.b {
		tails := [2]*atomic.Uint32{&next.b[i].head, &next.b[i+len(old.b)].head}
		for h := old.b[i].head.Load(); h != 0; {
			l := t.link(t.dentries.Get(slab.Handle(h)))
			half := 0
			if int(l.Hash())&len(old.b) != 0 {
				half = 1
			}
			tails[half].Store(h)
			tails[half] = &l.next[next.parity]
			h = l.next[old.parity].Load()
		}
		tails[0].Store(0)
		tails[1].Store(0)
	}
	t.buckets.Store(next)
	t.grown.Store(t.gate.Current())
	t.resizes.Add(1)
}

// TableStats describes one table's bucket array, or several tables'
// summed. Entries counts the dentries linked into it: at most Buckets
// below the ceiling, unless a pinned reader holds a doubling back (grow).
type TableStats struct {
	Buckets int64  `json:"buckets"`
	Entries int64  `json:"entries"`
	Resizes uint64 `json:"resizes"` // doublings so far; a table never shrinks
	Bytes   int64  `json:"bytes"`   // the bucket array alone
}

// Stats snapshots the table's size and growth.
func (t *Table) Stats() TableStats {
	n := int64(len(t.buckets.Load().b))
	return TableStats{
		Buckets: n,
		Entries: t.entries.Load(),
		Resizes: t.resizes.Load(),
		Bytes:   n * int64(unsafe.Sizeof(tbucket{})),
	}
}

// Add accumulates o into s (a System's DLHTs are reported as one).
func (s *TableStats) Add(o TableStats) {
	s.Buckets += o.Buckets
	s.Entries += o.Entries
	s.Resizes += o.Resizes
	s.Bytes += o.Bytes
}

// ChainShape is a table's occupancy and the distribution of live chain
// lengths over its current array (the §6.5 bucket-utilization datum).
type ChainShape struct {
	Buckets     int `json:"buckets"`
	Entries     int `json:"entries"`      // live entries seen by the scan
	Dead        int `json:"dead"`         // dead entries still chained, awaiting the sweeper
	UsedBuckets int `json:"used_buckets"` // buckets with >= 1 live entry
	Chain1      int `json:"chain_1"`      // used buckets with exactly 1 live entry
	Chain2      int `json:"chain_2"`
	ChainLonger int `json:"chain_longer"`
	MaxChain    int `json:"max_chain"`
	Collisions  int `json:"collisions"` // live entries sharing a bucket
}

// Shape walks every chain and reports the distribution. Lock-free and
// approximate under concurrency; the caller holds an epoch section.
func (t *Table) Shape() (s ChainShape) {
	a := t.buckets.Load()
	s.Buckets = len(a.b)
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
	t.scan(a, func(i int, d *Dentry) bool {
		if i != cur {
			tally()
			cur = i
		}
		if d.IsDead() {
			s.Dead++
		} else {
			live++
		}
		return true
	})
	tally()
	s.UsedBuckets = s.Chain1 + s.Chain2 + s.ChainLonger
	s.Collisions = s.Entries - s.Chain1
	return s
}
