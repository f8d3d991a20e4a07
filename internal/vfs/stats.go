package vfs

import (
	"reflect"
	"runtime"
	"sync/atomic"

	"dircache/internal/stripe"
)

// Counter names one directory cache counter: the index of its Stats
// field. The list below is the only declaration of the cache's counters;
// vfs and the fastpath hooks bump them by ID (Kernel.Count, and
// Kernel.CountFast for a fastpath walk's tallies), and Kernel.Stats sums
// them into the field of the same index.
type Counter int

// The counters, in Stats field order: constant NX is field X.
const (
	NLookups Counter = iota
	NSlowWalks
	NFastHits
	NFastNeg
	NComponents
	NCacheHits
	NFSLookups
	NHydrations
	NNegativeHits
	NCompleteShort
	NRetryWalks
	NReaddirCached
	NReaddirFS
	NMissCoalesced
	NInLookupWaits
	NEvictions
	NDentries
	NTryFast
	NDLHTMisses
	NPCCMisses
	NPrefixRechecks
	NDotDotChecks
	NPopulations
	NInvalidations
	NAliasDentries
	NDeepNegDentries
	NSeqBumps
	NStaleTokens
	NPCCFlushes
	NAdmitted
	NDeferred
	NBatchShootdowns
	NLazyShootdowns
	NKeptUnmoved
	NHashedBytes
	NPrefixMemoHits
	NResumedWalks
	NShortcutResumes
	NChildHops
	NBulkPopulations
	numCounters
)

// Stats is a snapshot of the directory cache counters: the VFS-level
// counters every configuration reports, plus fastpath counters, which
// read zero when no hooks are installed.
//
// Every field is counted by its Counter except these, which Kernel.Stats
// fills in: Dentries (a gauge, the cached dentries right now); TryFast
// (FastHits + DLHTMisses + PCCMisses: every fastpath attempt ends in one
// of the three); Lookups (FastHits + SlowWalks + the walks neither path
// sees, which NLookups counts: an empty path, ENAMETOOLONG, and a path
// that is its start directory answered ENOTDIR).
//
// A fastpath walk counts its hit, its memo-served prefix and its hashed
// bytes in one add to a packed word of its stripe (Kernel.CountFast); a
// field there carries half its range into the counter of its name when it
// reaches its top bit. A snapshot reads each such counter and its packed
// share as one pair, under a seqcount only carriers and readers touch, so
// a carry never shows half done: the fields stay exact at quiescence and
// monotonic in between.
//
// Snapshot consistency: counters are maintained in striped per-goroutine
// cells and read without stopping the world, so a snapshot taken while
// walks are in flight is racy in a precise, bounded way. Each individual
// field is a valid point-in-time read of a monotonically non-decreasing
// total (Dentries excepted), so subtracting two snapshots of the same
// field always yields the true number of events between the two reads,
// give or take walks in flight at the instants of the reads. What a
// snapshot does NOT promise is cross-field consistency: fields are read
// one after another, so identities that relate two fields ("SlowWalks +
// FastHits == Lookups", "CacheHits + FSLookups ≈ Components") can be
// transiently violated by walks that completed between reading one field
// and the next. Use Delta for before/after measurements and treat
// cross-field arithmetic on a single live snapshot as approximate.
type Stats struct {
	// Path resolution.
	Lookups   int64 // path walks requested
	SlowWalks int64 // component-at-a-time walks
	FastHits  int64 // whole-path fastpath hits
	FastNeg   int64 // fastpath hits answering ENOENT/ENOTDIR

	// Slow-path behaviour.
	Components    int64 // components resolved on the slow path
	CacheHits     int64 // hash table hits
	FSLookups     int64 // misses serviced by the low-level FS
	Hydrations    int64 // readdir stubs filled via GetNode
	NegativeHits  int64 // ENOENT answered by negative dentries
	CompleteShort int64 // misses answered by DIR_COMPLETE (§5.1)
	RetryWalks    int64 // optimistic walk retries/fallbacks

	// readdir (§5.1).
	ReaddirCached int64
	ReaddirFS     int64

	// Cold-miss storm handling: in-lookup dentries.
	MissCoalesced int64 // misses that joined an in-flight lookup instead of calling the FS
	InLookupWaits int64 // coalesced misses that actually blocked on the winner

	// Cache management.
	Evictions int64
	Dentries  int64 // gauge

	// Fastpath internals.
	TryFast         int64 // derived: fastpath attempts
	DLHTMisses      int64 // fastpath attempts whose signature was not in the DLHT
	PCCMisses       int64 // fastpath attempts that fell to the slow walk on the prefix check
	PrefixRechecks  int64 // PCC misses on a table hit answered by re-checking the prefix in place (hits, not misses)
	DotDotChecks    int64 // extra per-".." fastpath permission lookups
	Populations     int64 // DLHT+PCC population events
	Invalidations   int64 // mutation brackets opened (one shootdown each)
	AliasDentries   int64 // symlink alias dentries created (§4.2)
	DeepNegDentries int64 // deep negative dentries created (§5.2)

	// Coherence internals.
	SeqBumps    int64 // per-dentry version bumps (mutation roots + lazily discarded descendants)
	StaleTokens int64 // cache publishes declined due to racing mutations
	PCCFlushes  int64 // whole-PCC invalidations (seq wraparound)

	// Admission control and batched shootdown.
	Admitted        int64 // populations allowed on a dentry's Nth touch
	Deferred        int64 // populations declined pending more touches
	BatchShootdowns int64 // subtree invalidations taken as one range mark
	LazyShootdowns  int64 // range marks discharged lazily on a descendant by probes/sweeps
	KeptUnmoved     int64 // structural discharges that kept the entry: its path still names it

	HashedBytes    int64 // bytes actually fed to the path hash, all walks (a prefix memo hit feeds only the last component and its '/')
	PrefixMemoHits int64 // fastpath scans that took their directory prefix's hash from the prefix memo
	ResumedWalks   int64 // slow walks that resolved only the last component, from the directory a fastpath miss handed over
	// ShortcutResumes, ChildHops and BulkPopulations always read 0: the
	// directory-shortcut resume, the child hop and readdir-driven bulk
	// population they counted are gone. The fields stay because
	// benchmark/metrics.go reads them by name and panics on a missing one.
	ShortcutResumes int64
	ChildHops       int64
	BulkPopulations int64
}

// Delta returns the events counted between prev and s: every counter
// becomes s.field - prev.field. Because each field is individually
// monotonic (see the type comment), the result is exact per field even
// when both snapshots were taken on a live system. Dentries is a gauge,
// so Delta carries s's current value through unchanged.
//
// Typical use replaces hand-rolled subtraction around a workload:
//
//	before := sys.Stats()
//	runWorkload()
//	d := sys.Stats().Delta(before)
//	fmt.Println("FS lookups during workload:", d.FSLookups)
func (s Stats) Delta(prev Stats) Stats {
	out := s
	ov, pv := reflect.ValueOf(&out).Elem(), reflect.ValueOf(prev)
	for id := range numCounters {
		if id != NDentries {
			ov.Field(int(id)).SetInt(ov.Field(int(id)).Int() - pv.Field(int(id)).Int())
		}
	}
	return out
}

// HitRate returns the fraction of lookups that never reached the
// low-level file system (the paper's hit%).
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 || s.FSLookups > s.Lookups {
		return 0
	}
	return 1 - float64(s.FSLookups)/float64(s.Lookups)
}

// statsCell is one stripe's worth of counters, indexed by Counter.
type statsCell [numCounters]atomic.Int64

// The packed word's fields (Kernel.CountFast): fast hits and memo hits in
// 20 bits each, hashed bytes in 24. A field carries at its top bit, about
// a million hits apart per stripe (a warm hit hashes ~10 bytes).
const (
	packHitShift   = 0
	packMemoShift  = 20
	packBytesShift = 40
	packTops       = 1<<(packMemoShift-1) | 1<<(packBytesShift-1) | 1<<63
)

// packedFields lists the packed word's fields: the Counter each belongs
// to, its shift and its width.
var packedFields = [...]struct {
	id          Counter
	shift, bits uint
}{
	{NFastHits, packHitShift, packMemoShift - packHitShift},
	{NPrefixMemoHits, packMemoShift, packBytesShift - packMemoShift},
	{NHashedBytes, packBytesShift, 64 - packBytesShift},
}

// statsStripe is one stripe. Its first three words take 16 of the 64
// bytes that keep one stripe's written words a line from the next one's.
type statsStripe struct {
	packed atomic.Uint64 // a fastpath walk's tallies, packedFields
	seq    atomic.Uint32 // odd while a carrier moves a field's half into statsCell
	timed  atomic.Uint32 // walks counted for the timing sample (walkTimedEvery)
	statsCell
	_ [64 - 16]byte
}

// stripedStats spreads the counters over cache-line-separated cells so
// concurrent walks on different cores don't serialize on shared counter
// lines (the same false/true-sharing effect §6.5 measures for locks).
// Writers bump one cell picked by a per-goroutine hash; Kernel.Sum and
// Kernel.Stats sum them. The sums are racy but each counter is monotonic, so a snapshot is
// a valid (if instantaneously slightly stale) cumulative total; see Stats
// on cross-field skew.
type stripedStats struct {
	cells [stripe.Stripes]statsStripe
}

// stripe returns the calling goroutine's stripe.
func (s *stripedStats) stripe() *statsStripe { return &s.cells[stripe.Index()] }

// cell returns the calling goroutine's stripe's counters. Hot paths that
// bump several counters per walk call it once and reuse the pointer.
func (s *stripedStats) cell() *statsCell { return &s.stripe().statsCell }

// Count adds n to counter id in the calling goroutine's stripe.
func (k *Kernel) Count(id Counter, n int64) { k.stats.cell()[id].Add(n) }

// CountFast adds one fastpath walk's tallies in one add: a hit (FastHits),
// a prefix served by the memo (PrefixMemoHits) and the bytes it hashed,
// a few KB at most against the 2^23 of headroom above that field's top
// bit. A field the add took to its top bit carries.
func (k *Kernel) CountFast(hit, memo bool, hashed int) {
	d := uint64(hashed) << packBytesShift
	if hit {
		d |= 1 << packHitShift
	}
	if memo {
		d |= 1 << packMemoShift
	}
	if d == 0 {
		return
	}
	s := k.stats.stripe()
	n := s.packed.Add(d)
	if crossed := n &^ (n - d) & packTops; crossed != 0 {
		s.carry(crossed)
	}
}

// carry moves half of each field whose top bit is in crossed — the fields
// this stripe's last add took across it — into its statsCell counter.
// Carriers take the seqcount odd one at a time, so a reader that finds it
// even and unchanged around its two loads saw no carry half done. The
// adds landing meanwhile stay in the field, whose other half is their
// headroom.
//
//go:noinline
func (s *statsStripe) carry(crossed uint64) {
	for {
		if q := s.seq.Load(); q&1 == 0 && s.seq.CompareAndSwap(q, q+1) {
			break
		}
		runtime.Gosched()
	}
	for _, f := range packedFields {
		if half := uint64(1) << (f.bits - 1); crossed&(half<<f.shift) != 0 {
			s.statsCell[f.id].Add(int64(half))
			s.packed.Add(-(half << f.shift))
		}
	}
	s.seq.Add(1)
}

// load reads counter id of one stripe: for a packed field, its statsCell
// counter plus its packed share, read as one pair that no carry tore.
func (s *statsStripe) load(id Counter) int64 {
	for _, f := range packedFields {
		if f.id != id {
			continue
		}
		for {
			if q := s.seq.Load(); q&1 == 0 {
				full, p := s.statsCell[id].Load(), s.packed.Load()
				if s.seq.Load() == q {
					return full + int64(p>>f.shift&(1<<f.bits-1))
				}
			}
			runtime.Gosched()
		}
	}
	return s.statsCell[id].Load()
}

// Sum reads one counter: its stripes summed. Lookups reads only the walks
// neither path saw (Stats derives the field).
func (k *Kernel) Sum(id Counter) int64 {
	var n int64
	for i := range k.stats.cells {
		n += k.stats.cells[i].load(id)
	}
	return n
}

// Stats snapshots the counters and fills in the derived fields.
func (k *Kernel) Stats() Stats {
	var out Stats
	v := reflect.ValueOf(&out).Elem()
	for id := range numCounters {
		v.Field(int(id)).SetInt(k.Sum(id))
	}
	out.Lookups += out.FastHits + out.SlowWalks
	out.Dentries = int64(k.DentryCount())
	out.TryFast = out.FastHits + out.DLHTMisses + out.PCCMisses
	return out
}
