package dircache

import (
	"dircache/internal/coherence"
	"dircache/internal/core"
	"dircache/internal/lsm"
	"dircache/internal/slab"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// CacheStats is a snapshot of the directory cache counters: the VFS-level
// counters every configuration reports, plus fastpath counters, which read
// zero when DirectLookup is off. Every field is counted where its event
// happens except Dentries (a gauge: the cached dentries right now),
// TryFast (FastHits + DLHTMisses + PCCMisses) and Lookups (FastHits +
// SlowWalks + the walks rejected before either), which the snapshot fills
// in, and ShortcutResumes, ChildHops and BulkPopulations, which always
// read 0. Delta subtracts two
// snapshots field by field (Dentries passes through); see vfs.Stats on
// what a snapshot taken while walks are in flight promises.
type CacheStats = vfs.Stats

// Stats snapshots the system's cache counters.
func (s *System) Stats() CacheStats { return s.k.Stats() }

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
// linked entries, doublings and bucket-array bytes.
type TableStats = vfs.TableStats

// PrefixMemoStats sizes the fastpath's prefix memo: its fixed slots, the
// directory prefixes it holds, and the bytes of both.
type PrefixMemoStats = core.PrefixMemoStats

// TelemetryFootprint sizes an attached telemetry subsystem: the histogram
// cells its recorders allocated and the slots its journal and trace rings
// have grown to, with their bytes.
type TelemetryFootprint = telemetry.Footprint

// CoherenceFootprint sizes a System's coherence log: the slots it has
// grown to and the path bytes its retained records carry.
type CoherenceFootprint = coherence.Footprint

// MemStats reports the memory picture behind the dentry cache — what a
// System holds that grows with what it caches: the dentry arena's
// occupancy (both hash tables chain through the dentries, so it is the
// one arena), the two hash tables' bucket arrays and the prefix memo,
// plus the deferred-teardown queue depth and the cumulative count of
// teardown records the sweeper has processed — and, beside them, what its
// telemetry and coherence log have grown to.
type MemStats struct {
	Table      TableStats      `json:"table"`
	DLHT       TableStats      `json:"dlht"`        // zero when DirectLookup is off
	PrefixMemo PrefixMemoStats `json:"prefix_memo"` // zero when DirectLookup is off

	Dentries ArenaStats `json:"dentries"`
	// ChainNodes, FastDentries and DLHTNodes are retired and always zero:
	// the (parent, name) table and the DLHT chain through the dentries,
	// and the fastpath's per-dentry state lives in the dentry's own slot
	// (Dentries). Kept while a reader outside this module still names
	// them; neither JSON nor the exporter shows them.
	ChainNodes   ArenaStats `json:"-"`
	FastDentries ArenaStats `json:"-"`
	DLHTNodes    ArenaStats `json:"-"`

	LimboQueue int64  `json:"limbo_queue"` // dentries killed but not yet swept
	Swept      uint64 `json:"swept"`       // cumulative teardown records processed

	Telemetry TelemetryFootprint `json:"telemetry"` // zero with no telemetry attached
	Coherence CoherenceFootprint `json:"coherence"` // zero on a System without peers
}

// MemStats snapshots slab-arena occupancy and teardown-queue state.
func (s *System) MemStats() MemStats {
	d, limbo, swept := s.k.MemStats()
	out := MemStats{
		Table:      s.k.TableStats(),
		DLHT:       s.k.DLHTStats(),
		Dentries:   arenaStats(d),
		LimboQueue: limbo,
		Swept:      swept,
		Telemetry:  s.k.Telemetry().Footprint(),
		Coherence:  coherence.Size(s.k.Coherence()),
	}
	if s.core != nil {
		out.PrefixMemo = s.core.PrefixMemoStats()
	}
	return out
}

// Bytes is what the snapshot accounts for: the two hash tables' bucket
// arrays, the prefix memo and the dentry arena's slots. It is the part of a
// System's footprint that follows the number of cached names, with the
// memo's fixed 32 KB of slots; Telemetry and Coherence size themselves,
// and the fixed-size structures beside them (the signature key, each PCC)
// are listed in DESIGN §5g.
func (s MemStats) Bytes() int64 {
	return s.Table.Bytes + s.DLHT.Bytes + s.PrefixMemo.Bytes + s.Dentries.Bytes
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
