package vfs

import "dircache/internal/telemetry"

// This file is the VFS half of the coherence-observability layer: the
// cache-structure stamp audit passes validate against, the journal
// emission helper, and the dentry-cache introspection snapshot.

// cacheMutBegin / cacheMutEnd bracket every multi-step structural change
// to the dentry cache (insert, teardown, rename move, eviction,
// completeness transition). The pair implements a multi-writer seqlock:
// active counts in-flight brackets, seq counts completed ones (bumped
// before the active decrement, so a reader seeing active == 0 has the
// completed work in seq). A reader observing equal seq and active == 0 at
// both edges of a scan is guaranteed no bracket overlapped the scan.
func (k *Kernel) cacheMutBegin() { k.cacheMutActive.Add(1) }

func (k *Kernel) cacheMutEnd() {
	k.cacheMutSeq.Add(1)
	k.cacheMutActive.Add(-1)
}

// CoherenceStamp returns the cache-structure stamp: the completed-change
// sequence and whether the cache is structurally quiescent right now.
// The invariant auditor reads it before and after a pass; a pass is only
// trusted if both reads are quiet and the sequences match.
func (k *Kernel) CoherenceStamp() (seq uint64, quiet bool) {
	return k.cacheMutSeq.Load(), k.cacheMutActive.Load() == 0
}

// ChrootCount reports how many Chroot calls have happened kernel-wide.
func (k *Kernel) ChrootCount() uint64 { return k.chrootCount.Load() }

// journal returns the telemetry sink iff it is attached and enabled, nil
// otherwise. Mutation paths load it once and emit through the non-nil
// pointer; the disabled cost stays one atomic load + branch.
func (k *Kernel) journal() *telemetry.Telemetry {
	tel := k.tel.Load()
	if !tel.On() {
		return nil
	}
	return tel
}

// ForEachDentry calls fn for every dentry currently in the cache: every
// slab slot whose tenant carries DInLRU. No lock is held while fn runs, so
// fn may take dentry locks. Concurrent allocations/evictions may be missed
// or seen dead — callers needing a consistent view validate with
// CoherenceStamp.
func (k *Kernel) ForEachDentry(fn func(*Dentry)) {
	// Pin an epoch so the slots the scan hands out cannot be recycled
	// while fn runs against them.
	ep := k.gate.Enter()
	defer k.gate.Exit(ep)
	k.lru.forEach(fn)
}

// CacheIntrospection is an occupancy snapshot of the dentry cache: how
// many of each dentry kind are cached, DIR_COMPLETE coverage, and the
// (parent,name) hash table's chain-length distribution. Counts are
// gathered dentry-by-dentry without a global lock, so under concurrent
// churn they are approximate (each individually valid, cross-field skew
// possible).
type CacheIntrospection struct {
	Dentries     int `json:"dentries"`
	Negative     int `json:"negative"`
	DeepNegative int `json:"deep_negative"`
	NotDir       int `json:"not_dir"`
	Alias        int `json:"alias"`
	Unhydrated   int `json:"unhydrated"`
	Dirs         int `json:"dirs"`
	CompleteDirs int `json:"complete_dirs"`
	Pinned       int `json:"pinned"`
	// InLookup counts live in-lookup placeholders. They are gauged from a
	// dedicated kernel counter: placeholders are deliberately invisible to
	// the LRU membership this snapshot iterates.
	InLookup int `json:"in_lookup"`

	HashEmpty int `json:"hash_empty"`
	Hash1     int `json:"hash_1"`
	Hash2     int `json:"hash_2"`
	HashMore  int `json:"hash_more"`

	MutationSeq   uint64 `json:"mutation_seq"`
	EvictionEpoch uint64 `json:"eviction_epoch"`
}

// Introspect snapshots the dentry cache's occupancy.
func (k *Kernel) Introspect() CacheIntrospection {
	var s CacheIntrospection
	k.ForEachDentry(func(d *Dentry) {
		if d.IsDead() {
			return
		}
		s.Dentries++
		fl := d.Flags()
		if fl&DNegative != 0 {
			s.Negative++
		}
		if fl&DDeepNegative != 0 {
			s.DeepNegative++
		}
		if fl&DNotDir != 0 {
			s.NotDir++
		}
		if fl&DAlias != 0 {
			s.Alias++
		}
		if fl&DUnhydrated != 0 {
			s.Unhydrated++
		}
		if d.IsDir() && fl&DNegative == 0 {
			s.Dirs++
			if fl&DComplete != 0 {
				s.CompleteDirs++
			}
		}
		if d.refs.Load() > 0 {
			s.Pinned++
		}
	})
	s.InLookup = int(k.inLookupCount.Load())
	s.HashEmpty, s.Hash1, s.Hash2, s.HashMore = k.ChainStats()
	s.MutationSeq = k.cacheMutSeq.Load()
	s.EvictionEpoch = k.lru.Epoch()
	return s
}
