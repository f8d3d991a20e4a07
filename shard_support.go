package dircache

import (
	"fmt"

	"dircache/internal/coherence"
)

// Shard support: the hooks internal/shard uses to run N System instances
// as one sharded namespace. Each shard's namespace operations publish the
// paths whose cached answers they falsify into its coherence log
// (internal/coherence, read by cursor), and the shard applies the records
// its peers publish: a permission change in place, anything else by
// discarding its cached view of the affected path — fail-closed.

// CoherenceRecord is one published invalidation: a path whose cached view
// may be wrong on every peer, and why.
type CoherenceRecord = coherence.Record

// EnableShardCoherence prepares the System to act as one shard of a
// sharded namespace: from here on every namespace operation that falsifies
// a path's cached answer — a creation, an unlink, a rename's source and
// destination, a permission change — publishes the path to the System's
// coherence log once its backend call is done (DESIGN §8). Any
// configuration can be a shard, with telemetry on or off. Idempotent.
func (s *System) EnableShardCoherence() { s.k.EnableCoherence() }

// EventsSince reads the System's coherence log from cursor: records with
// ID > cursor in ID order, the next cursor, and fellBehind = true when the
// log overwrote records the reader never saw (the reader must fall back
// to RemoteInvalidateAll).
func (s *System) EventsSince(cursor uint64) (recs []CoherenceRecord, next uint64, fellBehind bool) {
	return s.k.Coherence().Since(cursor)
}

// CoherencePending is how many records of the coherence log a reader at
// cursor has yet to account for; see ringlog.Log.Pending for a cursor
// the log cannot serve.
func (s *System) CoherencePending(cursor uint64) int { return s.k.Coherence().Pending(cursor) }

// RemoteInvalidate applies a peer shard's coherence record to this
// System's cache. A "perm" record on a cached, positive path revokes every
// memoized prefix check at or below it and re-reads that one inode's
// attributes from the backend; nothing is evicted. Any other record tears
// down the cached view of the path (if any) and drops its parent's listing
// authority. A path this System never cached costs a descent through
// cached dentries and touches nothing. Returns the number of dentries
// discarded.
func (s *System) RemoteInvalidate(rec CoherenceRecord) int {
	return s.k.InvalidateCachedPath(rec.Path, rec.Note)
}

// RemoteInvalidateAll is the fail-closed fallback for a subscriber that
// fell behind the peer's journal retention: every cached dentry is
// dropped (evictions clear each parent's DIR_COMPLETE on the way out) and
// the root takes an InvalRemote epoch bump, so nothing cached before the
// gap can answer a walk. Returns the number of dentries discarded.
func (s *System) RemoteInvalidateAll() int {
	n := s.k.DropCaches()
	s.k.InvalidateCachedPath("/", "")
	return n
}

// CachedClaim classifies what the System's cache currently claims about a
// path without consulting the backend; see the constants. The cross-shard
// auditor compares claims against ground truth after coherence converges.
type CachedClaim int

const (
	// ClaimMiss: the cache holds no claim; the next walk asks the backend.
	ClaimMiss CachedClaim = iota
	// ClaimPositive: the full path is cached with a live inode.
	ClaimPositive
	// ClaimNegative: the cache would answer ENOENT authoritatively (a
	// negative dentry, or a DIR_COMPLETE parent without the binding).
	ClaimNegative
)

// String names the claim for audit findings.
func (c CachedClaim) String() string {
	switch c {
	case ClaimPositive:
		return "positive"
	case ClaimNegative:
		return "negative"
	case ClaimMiss:
		return "miss"
	}
	return fmt.Sprintf("claim(%d)", int(c))
}

// CachedClaim reports the cache's current claim about path.
func (s *System) CachedClaim(path string) CachedClaim {
	return CachedClaim(s.k.CachedPathClaim(path))
}

// RegisterSystems registers each system's cache counters with tl under
// per-shard source names ("<prefix>0", "<prefix>1", ...), so the metrics
// exporter and dcsh top render one row per shard instead of silently
// showing only shard 0.
func RegisterSystems(tl *Telemetry, prefix string, systems ...*System) {
	for i, sys := range systems {
		tl.RegisterStats(fmt.Sprintf("%s%d", prefix, i), func() map[string]int64 { return sys.Stats().Map() })
	}
}
