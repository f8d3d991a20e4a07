package telemetry

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dircache/internal/stripe"
)

// The coherence event journal records every invalidation-relevant mutation
// of the directory cache: seq bumps with their subtree size, global
// invalidation-epoch bumps, DLHT insert/remove/sweep, PCC flush/resize,
// DIR_COMPLETE transitions, and LRU evictions. Where the histograms say
// how long coherence work took, the journal says *what* fired and *why* —
// the raw material for the invariant auditor (internal/audit) and for
// post-mortems of stale-entry or cold-fastpath reports.
//
// Like the trace ring it is fixed-size and drops oldest, but it is striped:
// mutations arrive from every writer in a stress run, and a single mutex
// ring would serialize them. Events carry a globally monotonic ID (a
// single atomic counter — uncontended relative to the mutation work around
// each emission) so a dump can re-merge the stripes into one timeline.
//
// Stripe selection hashes the event's subject (dentry or credential ID),
// NOT the emitting goroutine: all events about one subject land in one
// stripe, and emitters serialize per-subject events at the source (DLHT
// insert/remove are emitted under the dentry's fast-state lock). Within a
// stripe, drop-oldest therefore preserves per-subject suffixes: if any
// event about subject S is retained, every later event about S is retained
// too. The auditor's journal cross-check ("latest retained event for this
// dentry says removed, yet it is in the table") is sound only because of
// this property — do not change stripe selection to a goroutine hash.

// JournalKind classifies one coherence event.
type JournalKind uint8

const (
	// JSeqBump: a mutation bumped the seq counter of its root dentry (the
	// only one it bumps; descendants are covered by the JBatchShoot that
	// follows). Ref = root dentry ID, Aux = the root's cached children
	// (0: no range mark was needed), Note = the mutation reason
	// (rename/perm/unlink/mount).
	JSeqBump JournalKind = iota
	// JEpochBump: the global invalidation epoch advanced (odd while the
	// mutation is in flight). Ref = mutation root dentry ID, Aux = the
	// new epoch value, Note = reason.
	JEpochBump
	// JDLHTInsert: a signature entry was published into the direct
	// lookup hash table. Ref = dentry ID, Aux = bucket index.
	JDLHTInsert
	// JDLHTRemove: a signature entry was removed (shootdown, eviction,
	// alias retarget). Ref = dentry ID, Aux = bucket index.
	JDLHTRemove
	// JDLHTSweep: an insert swept dead nodes out of a bucket chain.
	// Aux = nodes swept.
	JDLHTSweep
	// JPCCFlush: a prefix check cache was flushed whole. Ref =
	// credential ID, Aux = entries discarded.
	JPCCFlush
	// JPCCResize: a prefix check cache grew (generation copy). Ref =
	// credential ID, Aux = new capacity in entries.
	JPCCResize
	// JDirComplete: DIR_COMPLETE was set on a directory (its cached
	// children are authoritative). Ref = directory dentry ID.
	JDirComplete
	// JDirIncomplete: DIR_COMPLETE was cleared. Ref = directory ID.
	JDirIncomplete
	// JEvict: the LRU evicted a dentry, or a teardown killed a subtree.
	// Ref = dentry ID (the subtree root for teardowns), Aux = dentries
	// torn down with it (0 for single LRU evictions).
	JEvict
	// JAdmitDefer: admission control declined a slow-path population
	// (touch count below Config.AdmitAfter). Ref = dentry ID, Aux = the
	// touch count observed.
	JAdmitDefer
	// JAdmitted: admission control allowed a population. Ref = dentry ID,
	// Aux = touch count, Note = "nth" (counter reached).
	JAdmitted
	// JBatchShoot: a mutation of a dentry with cached children stamped
	// its range mark. Ref = subtree root dentry ID, Aux = the new
	// shootdown generation, Note = reason.
	JBatchShoot
	// JCoalesce: a concurrent slow-path miss joined an in-flight lookup
	// on the same (parent, comp) instead of issuing its own backend
	// Lookup. Ref = the in-lookup placeholder dentry ID, Note = "wait"
	// when the joiner actually blocked on the resolution.
	JCoalesce

	NumJournalKinds
)

var journalKindNames = [NumJournalKinds]string{
	"seq_bump", "epoch_bump", "dlht_insert", "dlht_remove", "dlht_sweep",
	"pcc_flush", "pcc_resize", "dir_complete", "dir_incomplete", "evict",
	"admit_defer", "admit", "batch_shoot", "coalesce",
}

// String returns the kind's exporter name.
func (k JournalKind) String() string {
	if int(k) < len(journalKindNames) {
		return journalKindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind by name so dumps read without a decoder
// ring.
func (k JournalKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Event is one journal entry. Events are immutable once emitted.
type Event struct {
	ID     uint64      `json:"id"`      // globally monotonic, dense from 1
	TimeNS int64       `json:"time_ns"` // unix nanoseconds at emission
	Kind   JournalKind `json:"kind"`
	Ref    uint64      `json:"ref,omitempty"`  // subject: dentry or credential ID
	Aux    int64       `json:"aux,omitempty"`  // kind-specific magnitude
	Note   string      `json:"note,omitempty"` // kind-specific tag (e.g. reason)
}

// journalStripe is one drop-oldest ring. The mutex is per-stripe and the
// critical section is a few stores, so cross-subject mutations never
// serialize on each other.
type journalStripe struct {
	mu    sync.Mutex
	buf   []Event // fixed capacity; slot = total % len(buf)
	total uint64  // events ever pushed here; excess over len(buf) dropped
}

// Journal is the striped coherence event ring.
type Journal struct {
	nextID  atomic.Uint64
	counts  [NumJournalKinds]atomic.Uint64 // emitted per kind (incl. dropped)
	stripes [stripe.Stripes]journalStripe
}

func newJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = 4096
	}
	per := (capacity + stripe.Stripes - 1) / stripe.Stripes
	j := &Journal{}
	for i := range j.stripes {
		j.stripes[i].buf = make([]Event, per)
	}
	return j
}

// emit appends one event and returns its ID.
func (j *Journal) emit(kind JournalKind, ref uint64, aux int64, note string) uint64 {
	ev := Event{
		ID:     j.nextID.Add(1),
		TimeNS: time.Now().UnixNano(),
		Kind:   kind,
		Ref:    ref,
		Aux:    aux,
		Note:   note,
	}
	j.counts[kind].Add(1)
	// Stripe by subject ONLY (see the package comment): folding the kind
	// in would scatter one subject's inserts and removes across stripes,
	// and drop-oldest could then drop a newer insert while an older
	// remove survived — breaking the per-subject suffix property the
	// auditor's cross-checks rely on.
	s := &j.stripes[ref&(stripe.Stripes-1)]
	s.mu.Lock()
	s.buf[s.total%uint64(len(s.buf))] = ev
	s.total++
	s.mu.Unlock()
	return ev.ID
}

// dump returns every retained event merged into ID order, plus the count
// of events dropped to make room.
func (j *Journal) dump() (events []Event, dropped uint64) {
	for i := range j.stripes {
		s := &j.stripes[i]
		s.mu.Lock()
		n := uint64(len(s.buf))
		if s.total <= n {
			events = append(events, s.buf[:s.total]...)
		} else {
			start := s.total % n
			events = append(events, s.buf[start:]...)
			events = append(events, s.buf[:start]...)
			dropped += s.total - n
		}
		s.mu.Unlock()
	}
	// Merge the per-stripe runs into one timeline. Stripe runs are
	// near-sorted already; a plain sort keeps this simple and the dump
	// is cold.
	sort.Slice(events, func(a, b int) bool { return events[a].ID < events[b].ID })
	return events, dropped
}

// counts is read without a dump for cheap rate accounting.
func (j *Journal) countsSnapshot() (perKind [NumJournalKinds]uint64, total uint64) {
	for i := range j.counts {
		perKind[i] = j.counts[i].Load()
		total += perKind[i]
	}
	return perKind, total
}

func (j *Journal) droppedCount() (dropped uint64) {
	for i := range j.stripes {
		s := &j.stripes[i]
		s.mu.Lock()
		if n := uint64(len(s.buf)); s.total > n {
			dropped += s.total - n
		}
		s.mu.Unlock()
	}
	return dropped
}
