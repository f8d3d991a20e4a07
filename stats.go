package dircache

import (
	"dircache/internal/core"
	"dircache/internal/lsm"
	"dircache/internal/slab"
	"dircache/internal/vfs"
)

// CacheStats is a snapshot of the directory cache counters: the VFS-level
// counters every configuration reports, plus fastpath counters, which read
// zero when DirectLookup is off. Every field is counted where its event
// happens except Dentries (a gauge: the cached dentries right now) and
// TryFast (FastHits + DLHTMisses + PCCMisses), which the snapshot fills
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

// MemStats reports the memory picture behind the dentry cache — what a
// System holds that grows with what it caches: the dentry arena's
// occupancy (both hash tables chain through the dentries, so it is the
// one arena), the two hash tables' bucket arrays and the prefix memo,
// plus the deferred-teardown queue depth and the cumulative count of
// teardown records the sweeper has processed.
type MemStats struct {
	Table      TableStats      `json:"table"`
	DLHT       TableStats      `json:"dlht"`        // zero when DirectLookup is off
	PrefixMemo PrefixMemoStats `json:"prefix_memo"` // zero when DirectLookup is off

	Dentries ArenaStats `json:"dentries"`
	// ChainNodes, FastDentries and DLHTNodes are retired and always zero:
	// the (parent, name) table and the DLHT chain through the dentries,
	// and the fastpath's per-dentry state lives in the dentry's own slot
	// (Dentries). Kept while a reader outside this module still names them.
	ChainNodes   ArenaStats `json:"chain_nodes"`
	FastDentries ArenaStats `json:"fast_dentries"`
	DLHTNodes    ArenaStats `json:"dlht_nodes"`

	LimboQueue int64  `json:"limbo_queue"` // dentries killed but not yet swept
	Swept      uint64 `json:"swept"`       // cumulative teardown records processed
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
	}
	if s.core != nil {
		out.PrefixMemo = s.core.PrefixMemoStats()
	}
	return out
}

// Bytes is what the snapshot accounts for: the two hash tables' bucket
// arrays, the prefix memo and the dentry arena's slots. It is the part of a
// System's footprint that follows the number of cached names, with the
// memo's fixed 32 KB of slots; the fixed-size structures beside it (the
// signature key, each PCC, telemetry's rings) are listed in DESIGN §5g.
func (s MemStats) Bytes() int64 {
	return s.Table.Bytes + s.DLHT.Bytes + s.PrefixMemo.Bytes + s.Dentries.Bytes
}

// counters flattens the snapshot into the telemetry exporter's flat
// counter namespace (source "mem"): the dentry arena's occupancy gauges
// (dentries_live/_free/_limbo/_slots/_chunks/_bytes) and cumulative
// reclamation traffic (dentries_retired/_reclaimed), each hash table's
// <table>_buckets/_entries/_resizes/_bytes, the prefix memo's
// prefix_memo_slots/_entries/_bytes, plus the teardown queue depth and
// sweep total.
func (s MemStats) counters() map[string]int64 {
	out := make(map[string]int64, 40)
	a := s.Dentries
	out["dentries_chunks"] = int64(a.Chunks)
	out["dentries_slots"] = int64(a.Slots)
	out["dentries_bytes"] = a.Bytes
	out["dentries_live"] = a.Live
	out["dentries_free"] = a.Free
	out["dentries_limbo"] = a.Limbo
	out["dentries_retired"] = int64(a.Retired)
	out["dentries_reclaimed"] = int64(a.Reclaimed)
	table := func(prefix string, t TableStats) {
		out[prefix+"_buckets"] = t.Buckets
		out[prefix+"_entries"] = t.Entries
		out[prefix+"_resizes"] = int64(t.Resizes)
		out[prefix+"_bytes"] = t.Bytes
	}
	table("table", s.Table)
	table("dlht", s.DLHT)
	out["prefix_memo_slots"] = int64(s.PrefixMemo.Slots)
	out["prefix_memo_entries"] = s.PrefixMemo.Entries
	out["prefix_memo_bytes"] = s.PrefixMemo.Bytes
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
