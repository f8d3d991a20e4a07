package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dircache"
	"dircache/internal/audit"
)

// Router fronts a set of shards as one namespace: every operation routes
// to the owning shard of its path (Ring), and mutations propagate to
// peers over a cursor into each shard's coherence log (Pump). The Router
// serializes its own bookkeeping; the shards themselves are concurrent.
type Router struct {
	ring   *Ring
	shards []Shard

	// mu guards the subscription cursors and the recent-mutation ring the
	// auditor probes.
	mu      sync.Mutex
	cursors []uint64
	recent  []string
	recentW int

	// Coherence counters (introspection + bench determinism gates).
	published atomic.Uint64 // records read from owners' coherence logs
	applied   atomic.Uint64 // per-peer invalidation applications
	fallbacks atomic.Uint64 // fell-behind full invalidations
}

// recentCap bounds the recent-mutation ring the cross-shard audit probes.
const recentCap = 512

// Options configures a Router.
type Options struct {
	// Pins routes whole subtrees to fixed shards (root path → shard id);
	// see Ring.Pin.
	Pins map[string]int
}

// NewRouter assembles a router over shards with consistent-hash routing.
func NewRouter(shards []Shard, opt Options) *Router {
	r := &Router{
		ring:    NewRing(len(shards)),
		shards:  shards,
		cursors: make([]uint64, len(shards)),
		recent:  make([]string, 0, recentCap),
	}
	for root, id := range opt.Pins {
		r.ring.Pin(root, id)
	}
	return r
}

// Ring exposes the routing table (read-only use).
func (r *Router) Ring() *Ring { return r.ring }

// Shards returns the routed shard set.
func (r *Router) Shards() []Shard { return r.shards }

// Owner returns the shard id owning path.
func (r *Router) Owner(path string) int { return r.ring.Owner(path) }

func (r *Router) owner(path string) Shard { return r.shards[r.ring.Owner(path)] }

// Stat routes to the owner of path's binding.
func (r *Router) Stat(path string) (dircache.FileInfo, error) { return r.owner(path).Stat(path) }

// Lstat routes to the owner of path's binding.
func (r *Router) Lstat(path string) (dircache.FileInfo, error) { return r.owner(path).Lstat(path) }

// ReadDir routes to the shard owning path's own bindings (OwnerDir), the
// same shard that answers stats for path's children.
func (r *Router) ReadDir(path string) ([]dircache.DirEntry, error) {
	return r.shards[r.ring.OwnerDir(path)].ReadDir(path)
}

// ReadFile routes like Stat.
func (r *Router) ReadFile(path string) ([]byte, error) { return r.owner(path).ReadFile(path) }

// WriteFile executes on the owner and records the mutation.
func (r *Router) WriteFile(path string, data []byte, perm uint32) error {
	if err := r.owner(path).WriteFile(path, data, perm); err != nil {
		return err
	}
	r.noteMutation(path)
	return nil
}

// Mkdir executes on the owner and records the mutation.
func (r *Router) Mkdir(path string, perm uint32) error {
	if err := r.owner(path).Mkdir(path, perm); err != nil {
		return err
	}
	r.noteMutation(path)
	return nil
}

// Rename executes on the shard owning the source binding; the
// destination-side staleness on other shards (including the destination's
// owner) is healed by the published events.
func (r *Router) Rename(oldPath, newPath string) error {
	if err := r.owner(oldPath).Rename(oldPath, newPath); err != nil {
		return err
	}
	r.noteMutation(oldPath)
	r.noteMutation(newPath)
	return nil
}

// Unlink executes on the owner and records the mutation.
func (r *Router) Unlink(path string) error {
	if err := r.owner(path).Unlink(path); err != nil {
		return err
	}
	r.noteMutation(path)
	return nil
}

// Rmdir executes on the owner and records the mutation.
func (r *Router) Rmdir(path string) error {
	if err := r.owner(path).Rmdir(path); err != nil {
		return err
	}
	r.noteMutation(path)
	return nil
}

// Chmod executes on the owner and records the mutation.
func (r *Router) Chmod(path string, perm uint32) error {
	if err := r.owner(path).Chmod(path, perm); err != nil {
		return err
	}
	r.noteMutation(path)
	return nil
}

func (r *Router) noteMutation(path string) {
	r.mu.Lock()
	if len(r.recent) < recentCap {
		r.recent = append(r.recent, path)
	} else {
		r.recent[r.recentW%recentCap] = path
	}
	r.recentW++
	r.mu.Unlock()
}

// Pump drains each shard's coherence log from its cursor and applies
// the records to every peer. It costs the invalidations it applies —
// pending × (N−1) — plus one atomic load per caught-up shard. A shard
// whose subscriber fell behind the log's retention triggers the
// fail-closed fallback: every peer drops its whole cache (never stale;
// the gap is unreconstructible). Returns the number of records processed
// — 0 means the tier is quiescent.
func (r *Router) Pump() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	work := 0
	for i, src := range r.shards {
		recs, next, fell := src.EventsSince(r.cursors[i])
		r.cursors[i] = next
		if fell {
			work++
			r.fallbacks.Add(1)
			for j, peer := range r.shards {
				if j != i {
					peer.InvalidateAll()
				}
			}
			continue
		}
		if len(recs) == 0 {
			continue
		}
		work += len(recs)
		r.published.Add(uint64(len(recs)))
		for _, rec := range recs {
			for j, peer := range r.shards {
				if j != i {
					peer.Invalidate(rec)
					r.applied.Add(1)
				}
			}
		}
	}
	return work
}

// Converge pumps until quiescent (or maxRounds). Applying an invalidation
// publishes nothing, so a round that starts quiescent stays quiescent:
// convergence is one clean round.
func (r *Router) Converge(maxRounds int) bool {
	if maxRounds <= 0 {
		maxRounds = 8
	}
	for n := 0; n < maxRounds; n++ {
		if r.Pump() == 0 {
			return true
		}
	}
	return false
}

// Stats reports the coherence counters.
func (r *Router) Stats() (published, applied, fallbacks uint64) {
	return r.published.Load(), r.applied.Load(), r.fallbacks.Load()
}

// Lag returns, per shard, how many records of its coherence log its peers
// have not yet consumed (0 across the board when the tier is quiescent).
func (r *Router) Lag() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.shards))
	for i, src := range r.shards {
		out[i] = src.Pending(r.cursors[i])
	}
	return out
}

// Close closes every shard.
func (r *Router) Close() error {
	var first error
	for _, s := range r.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Audit runs the tier's cross-shard agreement checks plus each shard's
// own invariant audit:
//
//   - cross_shard_lag: after Converge, no shard's log may hold
//     coherence records its peers have not applied — a shard answering
//     fresh for a prefix another shard shot down at a later seq is
//     exactly an unapplied record.
//   - cross_shard_stale: for recently mutated paths, no shard's cache may
//     hold a claim (positive or negative) that contradicts ground truth.
//     A miss is never stale — the next walk consults the backend.
//
// truth reports ground truth for a path (exists or not); pass nil to skip
// the stale probe (e.g. over the wire, where no oracle exists).
func (r *Router) Audit(truth func(path string) (bool, error)) []audit.Finding {
	var findings []audit.Finding
	for i, s := range r.shards {
		if d, ok := s.(Doctorable); ok {
			rep := d.Doctor()
			for _, f := range rep.Findings {
				f.Detail = fmt.Sprintf("shard %d: %s", i, f.Detail)
				findings = append(findings, f)
			}
		}
	}
	for i, lag := range r.Lag() {
		if lag > 0 {
			findings = append(findings, audit.Finding{
				Check:  "cross_shard_lag",
				Detail: fmt.Sprintf("shard %d holds %d coherence records its peers have not applied", i, lag),
			})
		}
	}
	if truth != nil {
		r.mu.Lock()
		paths := append([]string(nil), r.recent...)
		r.mu.Unlock()
		seen := make(map[string]bool, len(paths))
		for _, p := range paths {
			if seen[p] {
				continue
			}
			seen[p] = true
			exists, err := truth(p)
			if err != nil {
				continue
			}
			for j, s := range r.shards {
				pr, ok := s.(Prober)
				if !ok {
					continue
				}
				claim := pr.Claim(p)
				if (claim == dircache.ClaimPositive && !exists) ||
					(claim == dircache.ClaimNegative && exists) {
					findings = append(findings, audit.Finding{
						Check: "cross_shard_stale",
						Path:  p,
						Detail: fmt.Sprintf("shard %d claims %s but backend says exists=%v",
							j, claim, exists),
					})
				}
			}
		}
	}
	return findings
}
