package telemetry

import (
	"encoding/json"
	"sort"
	"sync"

	"dircache/internal/stripe"
)

// The coherence event journal records every invalidation-relevant mutation
// of the directory cache: seq bumps with their subtree size, global
// invalidation-epoch bumps, DLHT insert/remove, PCC flush,
// DIR_COMPLETE transitions, and LRU evictions. Where the histograms say
// how long coherence work took, the journal says *what* fired and *why* —
// the raw material for the invariant auditor (internal/audit) and for
// post-mortems of stale-entry or cold-fastpath reports.
//
// Like the trace ring it is bounded and drops oldest, but it is striped:
// mutations arrive from every writer in a stress run, and a single mutex
// ring would serialize them. Nothing is shared between stripes on the
// emitting side — no global sequence, no global counters; a dump re-merges
// the stripes into one timeline by each event's timestamp.
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
	// JEpochBump: a mutation opened or closed, and the global invalidation
	// epoch advanced. Ref = mutation root dentry ID, Aux = the new epoch
	// word (edges above bit 16, mutations in flight below it), Note =
	// reason, with NoteEnd on the closing bump.
	JEpochBump
	// JDLHTInsert: a signature entry was published into the direct
	// lookup hash table. Ref = dentry ID, Aux = bucket index.
	JDLHTInsert
	// JDLHTRemove: a signature entry was removed (shootdown, eviction,
	// alias retarget). Ref = dentry ID, Aux = bucket index.
	JDLHTRemove
	// JPCCFlush: a prefix check cache was flushed whole. Ref =
	// credential ID, Aux = entries discarded.
	JPCCFlush
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
	"seq_bump", "epoch_bump", "dlht_insert", "dlht_remove",
	"pcc_flush", "dir_complete", "dir_incomplete", "evict",
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

// Note is the kind-specific tag of an event — the mutation's reason, the
// cause of an eviction — drawn from a fixed vocabulary, so the ring stores
// one byte where a string header would put a pointer (and a write barrier)
// in every slot.
type Note uint8

const (
	NoteNone Note = iota
	NoteRename
	NotePerm
	NoteUnlink
	NoteMount
	NoteRemote
	NoteUnknown
	NoteReaddir
	NoteCreate
	NoteTeardown
	NoteGone
	NoteRenameTarget
	NoteWait
	NoteEvictChild
	NoteShrink
	NoteNth
	NoteShootdown
	NoteLazyShootdown
	NoteReclaim
	NoteResign

	numNotes

	// NoteEnd is or-ed onto a reason to mark the epoch bump that closes a
	// mutation; a dump renders it as "<reason>-end".
	NoteEnd Note = 0x80
)

var noteNames = [numNotes]string{
	"", "rename", "perm", "unlink", "mount", "remote", "unknown", "readdir",
	"create", "teardown", "gone", "rename-target", "wait", "evict-child",
	"shrink", "nth", "shootdown", "lazy-shootdown", "reclaim", "resign",
}

// String returns the note as dumps render it.
func (n Note) String() string {
	if n&NoteEnd != 0 {
		return (n &^ NoteEnd).String() + "-end"
	}
	if n < numNotes {
		return noteNames[n]
	}
	return "unknown"
}

// Event is one journal entry as a dump renders it. Events are immutable
// once emitted.
type Event struct {
	// ID numbers the dump's timeline densely, oldest first, so that the
	// newest event's ID is the number of events ever emitted: with nothing
	// dropped an event keeps its ID from dump to dump.
	ID     uint64      `json:"id"`
	TimeNS int64       `json:"time_ns"` // unix nanoseconds at emission (Now)
	Kind   JournalKind `json:"kind"`
	Ref    uint64      `json:"ref,omitempty"`  // subject: dentry or credential ID
	Aux    int64       `json:"aux,omitempty"`  // kind-specific magnitude
	Note   string      `json:"note,omitempty"` // kind-specific tag (e.g. reason)
}

// slot is an event as the ring stores it: 32 bytes, two to a cache line,
// and no pointer, so a store is five plain words and the garbage collector
// never scans the ring. An event's ID is not stored — its position in the
// stripe orders it against the stripe's other events, its time against
// other stripes'.
type slot struct {
	t    int64
	ref  uint64
	aux  int64
	kind JournalKind
	note Note
}

// blockSlots is how many events a stripe gathers before it copies them
// into its ring. A ring sized to be worth reading after the fact — 128 KB
// at the default capacity — is written too slowly to stay cached, so a
// store into its next slot misses, and the unlock behind it waits the miss
// out: measured, that wait was more than a third of an emit. The block is
// rewritten every blockSlots events and stays in L1; filling it costs no
// miss, and the copy-out takes its eight lines' misses together.
const blockSlots = 16

// journalStripe is one drop-oldest ring and the block of newest events in
// front of it. The mutex is per-stripe and the critical section is a few
// stores, so cross-subject mutations never serialize on each other.
type journalStripe struct {
	mu     sync.Mutex
	total  uint64           // events ever pushed here
	block  [blockSlots]slot // events total&^(blockSlots-1) .. total-1
	ring   []slot           // whole blocks before that; event i sits at i&(len(ring)-1)
	counts [NumJournalKinds]uint64
}

// Journal is the striped coherence event ring.
type Journal struct {
	stripes [stripe.Stripes]journalStripe
	// per is each stripe ring's capacity. A ring starts empty and doubles
	// from one block when a flush would otherwise overwrite, so a stripe
	// costs what it holds until it holds per events; only then does it
	// drop oldest.
	per int
}

// newJournal sizes each stripe's ring capacity to the power of two that
// holds its share of capacity (and at least one block), so the journal
// retains at least capacity events.
func newJournal(capacity int) *Journal {
	per := blockSlots
	for per*stripe.Stripes < capacity {
		per <<= 1
	}
	return &Journal{per: per}
}

// emit appends one event: one clock read, one stripe lock, one 32-byte
// store into the stripe's block (DESIGN §6 has what each costs).
func (j *Journal) emit(kind JournalKind, ref uint64, aux int64, note Note) {
	t := Now()
	// Stripe by subject ONLY (see the package comment): folding the kind
	// in would scatter one subject's inserts and removes across stripes,
	// and drop-oldest could then drop a newer insert while an older
	// remove survived — breaking the per-subject suffix property the
	// auditor's cross-checks rely on.
	s := &j.stripes[ref&(stripe.Stripes-1)]
	s.mu.Lock()
	s.block[s.total&(blockSlots-1)] = slot{t: t, ref: ref, aux: aux, kind: kind, note: note}
	s.total++
	if s.total&(blockSlots-1) == 0 {
		at := s.total - blockSlots
		if at == uint64(len(s.ring)) && len(s.ring) < j.per {
			s.grow(j.per)
		}
		copy(s.ring[at&uint64(len(s.ring)-1):], s.block[:])
	}
	s.counts[kind]++
	s.mu.Unlock()
}

// grow doubles the stripe's ring (from one block), up to per, when the
// next block would overwrite its oldest. Nothing has been dropped yet, so
// event i sits at ring[i] and keeps its index. The caller holds s.mu.
func (s *journalStripe) grow(per int) {
	ring := make([]slot, min(max(2*len(s.ring), blockSlots), per))
	copy(ring, s.ring)
	s.ring = ring
}

// dropped is how many of the stripe's events the ring has overwritten. The
// caller holds s.mu.
func (s *journalStripe) dropped() uint64 {
	if flushed := s.total &^ (blockSlots - 1); flushed > uint64(len(s.ring)) {
		return flushed - uint64(len(s.ring))
	}
	return 0
}

// retained calls f on the stripe's retained events, oldest first: what is
// left of the ring, then the block. The caller holds s.mu.
func (s *journalStripe) retained(f func(slot)) {
	flushed := s.total &^ (blockSlots - 1)
	for at := s.dropped(); at < flushed; at++ {
		f(s.ring[at&uint64(len(s.ring)-1)])
	}
	for at := flushed; at < s.total; at++ {
		f(s.block[at&(blockSlots-1)])
	}
}

// event renders a slot.
func (sl slot) event() Event {
	return Event{TimeNS: sl.t, Kind: sl.kind, Ref: sl.ref, Aux: sl.aux, Note: sl.note.String()}
}

// dump returns every retained event merged into one timeline, plus the
// count of events dropped to make room. A stripe's events keep the order
// they were pushed in whatever their timestamps say — the auditor reads
// "later wins" per subject, and a subject lives in one stripe — and the
// stripes interleave by time: each event sorts by the latest timestamp its
// stripe had reached, which is its own unless a writer that read the clock
// first took the stripe lock second.
func (j *Journal) dump() (events []Event, dropped uint64) {
	type stamped struct {
		Event
		reached int64
	}
	var all []stamped
	for i := range j.stripes {
		s := &j.stripes[i]
		reached := int64(0)
		s.mu.Lock()
		dropped += s.dropped()
		s.retained(func(sl slot) {
			reached = max(reached, sl.t)
			all = append(all, stamped{sl.event(), reached})
		})
		s.mu.Unlock()
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].reached < all[b].reached })
	events = make([]Event, len(all))
	for i := range all {
		events[i] = all[i].Event
		events[i].ID = dropped + uint64(i) + 1
	}
	return events, dropped
}

// countsSnapshot is read without a dump for cheap rate accounting.
func (j *Journal) countsSnapshot() (perKind [NumJournalKinds]uint64, total uint64) {
	for i := range j.stripes {
		s := &j.stripes[i]
		s.mu.Lock()
		for k, n := range s.counts {
			perKind[k] += n
		}
		total += s.total
		s.mu.Unlock()
	}
	return perKind, total
}

// slots is how many slots the stripes' rings have grown to.
func (j *Journal) slots() (n int) {
	for i := range j.stripes {
		s := &j.stripes[i]
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}

func (j *Journal) droppedCount() (dropped uint64) {
	for i := range j.stripes {
		s := &j.stripes[i]
		s.mu.Lock()
		dropped += s.dropped()
		s.mu.Unlock()
	}
	return dropped
}
