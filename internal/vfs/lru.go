package vfs

import (
	"sync"
	"sync/atomic"

	"dircache/internal/slab"
	"dircache/internal/telemetry"
)

// lruList is the shrinker's view of the cache: CLOCK / second chance over
// the dentry slab itself. There is no list and no side table. Membership
// is the dentry's DInLRU flag, recency its DReferenced flag, and the order
// victims leave in is the order one hand sweeps slab handles — the dcache's
// DCACHE_REFERENCED scheme (paper §2.2) with the slab standing in for the
// LRU list. Exact LRU order is given up; what §5.1 needs from eviction, one
// epoch tick per evicted dentry, is kept. Only leaf dentries (no cached
// children) with no pins are evicted, preserving the invariant that every
// cached dentry's parents are cached (§2.2) — eviction is bottom-up.
type lruList struct {
	// arena is the dentry slab the hand walks.
	arena *slab.Arena[Dentry]

	count atomic.Int64

	// epoch increments on every eviction; directory-completeness
	// bookkeeping uses it to detect "a child may have been evicted while
	// I was reading this directory" (§5.1).
	epoch atomic.Uint64

	// tel points at the owning kernel's telemetry pointer (nil for a
	// zero-value lruList, as used by tests): victim selection is timed into
	// HistEvict when a telemetry subsystem is attached and enabled.
	tel *atomic.Pointer[telemetry.Telemetry]

	// handMu serializes evictors; hits, inserts and removals never take it.
	// hand is the slab handle the clock hand examined last.
	handMu sync.Mutex
	hand   slab.Handle
}

func (l *lruList) Len() int { return int(l.count.Load()) }

func (l *lruList) Epoch() uint64 { return l.epoch.Load() }

// add makes d a cache member. It starts referenced, so a dentry installed
// just ahead of the hand survives the pass that is already under way.
func (l *lruList) add(d *Dentry) {
	d.setFlags(DInLRU | DReferenced)
	l.count.Add(1)
}

// remove takes d out of the cache's accounting (unlink/teardown path). The
// flag flip decides who removed it, so a duplicate remove — or one racing
// the shrinker's claim — counts nothing and ticks no epoch.
func (l *lruList) remove(d *Dentry) {
	if DentryFlags(d.flags.And(^uint32(DInLRU|DReferenced)))&DInLRU != 0 {
		l.count.Add(-1)
		l.epoch.Add(1)
	}
}

// claim makes d the shrinker's: dead and out of the LRU in one step, under
// d.mu. linkChildLocked refuses a dead parent under the same lock, so once
// nkids reads zero here no child can land under the victim any more.
func (d *Dentry) claim() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.nkids.Load() != 0 || d.refs.Load() != 0 {
		return false
	}
	for {
		old := d.flags.Load()
		if DentryFlags(old)&(DInLRU|DDead) != DInLRU {
			return false // a teardown got here first
		}
		if d.flags.CompareAndSwap(old, (old|uint32(DDead))&^uint32(DInLRU|DReferenced)) {
			return true
		}
	}
}

// victims advances the hand until it has claimed n dentries or been round
// the slab twice, and returns the claimed ones: dead, out of the LRU, the
// epoch ticked once each, their parents no longer DIR_COMPLETE. The caller
// completes the eviction (parent detach, hooks, teardown queue). The hand passes over free slots, dentries
// not in the LRU, pinned ones and non-leaves; a referenced dentry loses the
// flag and is passed over too — its second chance — and an unreferenced one
// is claimed. Two revolutions bound a call: the first clears every flag it
// meets, so the second finds every evictable dentry that was not used in
// between. The cost is what the hand steps over, not the size of the cache.
func (l *lruList) victims(n int) []*Dentry {
	if n <= 0 {
		return nil
	}
	var tel *telemetry.Telemetry
	var scanStart int64
	if l.tel != nil {
		if tel = l.tel.Load(); tel.On() {
			scanStart = telemetry.Now()
		} else {
			tel = nil
		}
	}
	out := make([]*Dentry, 0, min(n, 512)) // maybeShrink's batch in one allocation
	l.handMu.Lock()
	top := l.arena.HighWater()
	for steps := 2 * int(top); steps > 0 && len(out) < n; steps-- {
		l.hand++
		if l.hand > top {
			l.hand = 1
		}
		d := l.member(l.hand)
		if d == nil || d.refs.Load() != 0 || d.nkids.Load() != 0 {
			continue
		}
		if d.Flags()&DReferenced != 0 {
			d.clearFlags(DReferenced)
			continue
		}
		// The parent stops being DIR_COMPLETE before the victim is dead, not
		// after: a listing served from a complete directory skips dead
		// children and completeWithout trusts the flag, so in the other
		// order a walker in between reads an authoritative ENOENT, or a
		// listing without it, for a name that exists.
		if p := d.Parent(); p != nil && p.Flags()&DComplete != 0 {
			p.clearFlags(DComplete)
			if tel != nil {
				tel.Emit(telemetry.JDirIncomplete, p.ID(), 0, telemetry.NoteEvictChild)
			}
		}
		if d.claim() {
			l.count.Add(-1)
			l.epoch.Add(1)
			out = append(out, d)
		}
	}
	l.handMu.Unlock()
	if tel != nil {
		tel.Record(telemetry.HistEvict, telemetry.Since(scanStart))
	}
	return out
}

// member returns the cache member living in slab slot h, or nil: the slot
// is free or in limbo, or its tenant is not in the LRU (an in-lookup
// placeholder, a dentry already killed).
func (l *lruList) member(h slab.Handle) *Dentry {
	d := l.arena.Resolve(slab.Ref{H: h, G: l.arena.GenOf(h)})
	if d == nil || d.Flags()&DInLRU == 0 {
		return nil
	}
	return d
}

// forEach calls fn for every dentry in the LRU, in slab order. The caller
// holds an epoch section, so no slot it is handed can be recycled under fn.
func (l *lruList) forEach(fn func(*Dentry)) {
	for h, top := slab.Handle(1), l.arena.HighWater(); h <= top; h++ {
		if d := l.member(h); d != nil {
			fn(d)
		}
	}
}
