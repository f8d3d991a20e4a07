package dircache

import (
	"reflect"

	"dircache/internal/lsm"
	"dircache/internal/slab"
	"dircache/internal/vfs"
)

// CacheStats aggregates directory cache counters: the VFS-level counters
// every configuration reports, plus fastpath counters when DirectLookup is
// enabled.
//
// Snapshot consistency: counters are maintained in striped per-goroutine
// cells and read without stopping the world, so a snapshot taken while
// walks are in flight is racy in a precise, bounded way. Each individual
// field is a valid point-in-time read of a monotonically non-decreasing
// total (Dentries excepted — it is a gauge and can move both ways), so
// subtracting two snapshots of the same field always yields the true
// number of events between the two reads, give or take walks in flight at
// the instants of the reads. What a snapshot does NOT promise is
// cross-field consistency: fields are read one after another, so
// identities that relate two fields ("SlowWalks + FastHits == Lookups",
// "CacheHits + FSLookups ≈ Components") can be transiently violated by
// walks that completed between reading one field and the next. Use Delta
// for before/after measurements and treat cross-field arithmetic on a
// single live snapshot as approximate.
type CacheStats struct {
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
	CompleteShort int64 // misses answered by DIR_COMPLETE
	RetryWalks    int64 // optimistic walk retries/fallbacks

	// readdir (§5.1).
	ReaddirCached int64
	ReaddirFS     int64

	// Cold-miss storm handling: in-lookup dentries.
	MissCoalesced int64 // misses that joined an in-flight lookup instead of calling the FS
	InLookupWaits int64 // coalesced misses that actually blocked on the winner

	// Cache management.
	Evictions int64
	Dentries  int64

	// Fastpath internals (zero when DirectLookup is off).
	TryFast         int64
	DLHTMisses      int64
	PCCMisses       int64 // fastpath attempts that fell to the slow walk on the prefix check
	PrefixRechecks  int64 // PCC misses on a table hit answered by re-checking the prefix in place (hits, not misses)
	DotDotChecks    int64
	Populations     int64
	Invalidations   int64
	AliasDentries   int64
	DeepNegDentries int64

	// Coherence internals (zero when DirectLookup is off).
	SeqBumps    int64 // per-dentry version bumps (mutation roots + lazily discarded descendants)
	StaleTokens int64 // cache publishes declined due to racing mutations
	DLHTSweeps  int64 // dead hash table nodes lazily reclaimed by inserts
	PCCFlushes  int64 // whole-PCC invalidations (seq wraparound)
	PCCResizes  int64 // PCC generation growths

	// Admission control and batched shootdown (zero when DirectLookup is
	// off).
	Admitted        int64 // populations allowed on a dentry's Nth touch
	Deferred        int64 // populations declined pending more touches
	BatchShootdowns int64 // subtree invalidations taken as one range mark
	LazyShootdowns  int64 // stale entries discarded lazily by probes/sweeps

	HashedBytes int64 // bytes fed to the path hash, all walks
	// ShortcutResumes, ChildHops and BulkPopulations always read 0: the
	// directory-shortcut resume, the child hop and readdir-driven bulk
	// population they counted are gone. The fields stay because
	// benchmark/metrics.go reads CacheStats fields by name and panics on
	// a missing one.
	ShortcutResumes int64
	ChildHops       int64
	BulkPopulations int64
}

// Delta returns the events counted between prev and s: every cumulative
// field becomes s.field - prev.field. Because each field is individually
// monotonic (see the type comment), the result is exact per field even
// when both snapshots were taken on a live system. Dentries is a gauge,
// not a counter, so Delta carries s's current value through unchanged.
//
// Typical use replaces hand-rolled subtraction around a workload:
//
//	before := sys.Stats()
//	runWorkload()
//	d := sys.Stats().Delta(before)
//	fmt.Println("FS lookups during workload:", d.FSLookups)
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	out := s
	sv := reflect.ValueOf(&out).Elem()
	pv := reflect.ValueOf(prev)
	for i := 0; i < sv.NumField(); i++ {
		if sv.Type().Field(i).Name == "Dentries" {
			continue // gauge: keep the current value
		}
		sv.Field(i).SetInt(sv.Field(i).Int() - pv.Field(i).Int())
	}
	return out
}

// counters flattens the snapshot into a name → value map for telemetry
// export. Field names become metric label values verbatim.
func (s CacheStats) counters() map[string]int64 {
	out := make(map[string]int64)
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		out[v.Type().Field(i).Name] = v.Field(i).Int()
	}
	return out
}

// HitRate returns the fraction of lookups that never reached the
// low-level file system (the paper's hit%).
func (s CacheStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	misses := float64(s.FSLookups)
	total := float64(s.Lookups)
	if misses > total {
		return 0
	}
	return 1 - misses/total
}

// Stats snapshots the system's cache counters.
func (s *System) Stats() CacheStats {
	v := s.k.Stats()
	out := CacheStats{
		Lookups:       v.Lookups,
		SlowWalks:     v.SlowWalks,
		FastHits:      v.FastHits,
		FastNeg:       v.FastNegHits,
		Components:    v.Components,
		CacheHits:     v.CacheHits,
		FSLookups:     v.FSLookups,
		Hydrations:    v.Hydrations,
		NegativeHits:  v.NegativeHits,
		CompleteShort: v.CompleteShort,
		RetryWalks:    v.RetryWalks,
		ReaddirCached: v.ReaddirCached,
		ReaddirFS:     v.ReaddirFS,

		MissCoalesced: v.MissCoalesced,
		InLookupWaits: v.InLookupWaits,

		Evictions: v.Evictions,
		Dentries:  int64(s.k.DentryCount()),
	}
	if s.core != nil {
		c := s.core.Stats()
		out.TryFast = c.TryFast
		out.DLHTMisses = c.DLHTMiss
		out.PCCMisses = c.PCCMiss
		out.PrefixRechecks = c.Rechecks
		out.DotDotChecks = c.DotDotChecks
		out.Populations = c.Populations
		out.Invalidations = c.Invalidation
		out.AliasDentries = c.AliasCreated
		out.DeepNegDentries = c.DeepNegCreated
		out.SeqBumps = c.SeqBumps
		out.StaleTokens = c.StaleTokens
		out.DLHTSweeps = c.DLHTSweeps
		out.PCCFlushes = c.PCCFlushes
		out.PCCResizes = c.PCCResizes
		out.Admitted = c.Admitted
		out.Deferred = c.Deferred
		out.BatchShootdowns = c.BatchShootdowns
		out.LazyShootdowns = c.LazyShootdowns
		out.HashedBytes = c.HashedBytes
	}
	return out
}

// ArenaStats describes one slab arena's occupancy: how many chunks and
// slots it holds and the bytes they occupy, how the slots split across
// in-use / free-list / awaiting-grace states, and the cumulative
// retire/reclaim traffic.
type ArenaStats struct {
	Chunks int   `json:"chunks"`
	Slots  int   `json:"slots"`
	Bytes  int64 `json:"bytes"`
	Live   int64 `json:"live"`
	Free   int64 `json:"free"`
	Limbo  int64 `json:"limbo"` // retired, awaiting epoch grace

	Retired   uint64 `json:"retired"`
	Reclaimed uint64 `json:"reclaimed"`
}

// TableStats describes a hash table's bucket array — the (parent, name)
// table the slow walk probes, or every namespace's DLHT summed: buckets,
// linked chain nodes, doublings and bucket-array bytes.
type TableStats = vfs.TableStats

// MemStats reports the memory picture behind the dentry cache — what a
// System holds that grows with what it caches: per-arena occupancy for
// the four arenas (dentries and baseline hash-chain nodes in the kernel;
// fast-dentry side tables and DLHT chain nodes in the fastpath) and the
// two hash tables' bucket arrays, plus the deferred-teardown queue depth
// and the cumulative count of teardown records the sweeper has processed.
type MemStats struct {
	Table TableStats `json:"table"`
	DLHT  TableStats `json:"dlht"` // zero when DirectLookup is off

	Dentries   ArenaStats `json:"dentries"`
	ChainNodes ArenaStats `json:"chain_nodes"`
	// FastDentries and DLHTNodes are zero when DirectLookup is off.
	FastDentries ArenaStats `json:"fast_dentries"`
	DLHTNodes    ArenaStats `json:"dlht_nodes"`

	LimboQueue int64  `json:"limbo_queue"` // dentries killed but not yet swept
	Swept      uint64 `json:"swept"`       // cumulative teardown records processed
}

// MemStats snapshots slab-arena occupancy and teardown-queue state.
func (s *System) MemStats() MemStats {
	d, cn, limbo, swept := s.k.MemStats()
	out := MemStats{
		Table:      s.k.TableStats(),
		Dentries:   arenaStats(d),
		ChainNodes: arenaStats(cn),
		LimboQueue: limbo,
		Swept:      swept,
	}
	if s.core != nil {
		fds, nodes, dlht := s.core.MemStats()
		out.FastDentries = arenaStats(fds)
		out.DLHTNodes = arenaStats(nodes)
		out.DLHT = dlht
	}
	return out
}

// Bytes is what the snapshot accounts for: the two hash tables' bucket
// arrays and the four arenas' slots. It is the part of a System's
// footprint that follows the number of cached names; the fixed-size
// structures beside it (the signature key, each PCC, telemetry's rings)
// are listed in DESIGN §5g.
func (s MemStats) Bytes() int64 {
	return s.Table.Bytes + s.DLHT.Bytes + s.Dentries.Bytes + s.ChainNodes.Bytes + s.FastDentries.Bytes + s.DLHTNodes.Bytes
}

// counters flattens the snapshot into the telemetry exporter's flat
// counter namespace (source "mem"): per-arena occupancy gauges
// (<arena>_live/_free/_limbo/_slots/_chunks/_bytes) and cumulative
// reclamation traffic (<arena>_retired/_reclaimed), each hash table's
// <table>_buckets/_entries/_resizes/_bytes, plus the teardown queue depth
// and sweep total.
func (s MemStats) counters() map[string]int64 {
	out := make(map[string]int64, 40)
	arena := func(prefix string, a ArenaStats) {
		out[prefix+"_chunks"] = int64(a.Chunks)
		out[prefix+"_slots"] = int64(a.Slots)
		out[prefix+"_bytes"] = a.Bytes
		out[prefix+"_live"] = a.Live
		out[prefix+"_free"] = a.Free
		out[prefix+"_limbo"] = a.Limbo
		out[prefix+"_retired"] = int64(a.Retired)
		out[prefix+"_reclaimed"] = int64(a.Reclaimed)
	}
	arena("dentries", s.Dentries)
	arena("chain_nodes", s.ChainNodes)
	arena("fast_dentries", s.FastDentries)
	arena("dlht_nodes", s.DLHTNodes)
	table := func(prefix string, t TableStats) {
		out[prefix+"_buckets"] = t.Buckets
		out[prefix+"_entries"] = t.Entries
		out[prefix+"_resizes"] = int64(t.Resizes)
		out[prefix+"_bytes"] = t.Bytes
	}
	table("table", s.Table)
	table("dlht", s.DLHT)
	out["limbo_queue"] = s.LimboQueue
	out["swept"] = int64(s.Swept)
	return out
}

func arenaStats(v slab.Stats) ArenaStats {
	return ArenaStats{
		Chunks: v.Chunks, Slots: v.Slots, Bytes: v.Bytes,
		Live: v.Live, Free: v.Free, Limbo: v.Limbo,
		Retired: v.Retired, Reclaimed: v.Reclaimed,
	}
}

// BucketStats reports baseline hash table chain utilization
// (empty / one / two / three-plus), the §6.5 discussion datum.
func (s *System) BucketStats() (empty, one, two, more int) {
	return s.k.ChainStats()
}

// LabelPolicy is a type-enforcement-style LSM policy: allow rules between
// subject labels (Creds.Label) and object labels (SetLabel).
type LabelPolicy struct {
	p *lsm.LabelPolicy
}

// NewLabelPolicy creates an empty policy permitting unlabeled objects.
func NewLabelPolicy() *LabelPolicy {
	return &LabelPolicy{p: lsm.NewLabelPolicy()}
}

// Allow grants subject → object access for the mask.
func (lp *LabelPolicy) Allow(subject, object string, mask AccessMode) {
	lp.p.Allow(subject, object, mask)
}

// RegisterLSM installs the policy into the system's security module stack.
// Register policies before issuing lookups whose results they should
// govern; the PCC memoizes their decisions exactly like DAC (§4.1).
func (s *System) RegisterLSM(lp *LabelPolicy) {
	s.k.LSM().Register(lp.p)
}

// PathPolicy is an AppArmor-style pathname-mediation profile set: confined
// subjects (by credential Label) may only open paths their profile allows.
// Pathname checks run once per open, outside the lookup fastpath.
type PathPolicy struct {
	p *lsm.PathACL
}

// NewPathPolicy creates an empty profile set.
func NewPathPolicy() *PathPolicy { return &PathPolicy{p: lsm.NewPathACL()} }

// Allow grants subject the mask under a path prefix.
func (pp *PathPolicy) Allow(subject, prefix string, mask AccessMode) {
	pp.p.Allow(subject, prefix, mask)
}

// RegisterPathLSM installs the pathname-mediation policy.
func (s *System) RegisterPathLSM(pp *PathPolicy) {
	s.k.LSM().Register(pp.p)
}
