package core

import (
	"fmt"
	"sync/atomic"

	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// dnode is a DLHT chain node in the core's shared slab arena: the key is
// the 240-bit signature, compared with four word compares instead of a
// string compare, and the hash the node is filed under is the 16-bit index
// peeled from the same path hash — a table of 2^n buckets uses its low n
// bits — so an entry's identity is all 256 bits.
type dnode = vfs.TableNode[sig.Signature]

// DLHT is the direct lookup hash table (§3.1): a system-wide (per mount
// namespace, §4.3) vfs.Table mapping full-path signatures to dentries,
// which grows from a thousand buckets to the paper's 2^16 — every bit the
// index has — and no further. What it adds to the table is the journal of
// what enters and leaves it and the count of dead nodes its inserts sweep.
type DLHT struct {
	*vfs.Table[sig.Signature]
	k      *vfs.Kernel  // owns the epoch gate scans pin, and the telemetry
	sweeps atomic.Int64 // dead nodes reclaimed by inserts
}

func newDLHT(nodes *slab.Arena[dnode], k *vfs.Kernel) *DLHT {
	return &DLHT{Table: vfs.NewTable(k, nodes, 1<<sig.IndexBits), k: k}
}

// Lookup returns the live dentry stored under (idx, sg), or nil.
// Lock-free; the caller must hold an epoch section (every walk does).
func (h *DLHT) Lookup(idx uint16, sg sig.Signature) *vfs.Dentry {
	return h.Table.Lookup(uint64(idx), sg)
}

// Insert adds (idx, sg) → d. The caller serializes per-dentry insertion
// (each dentry is in at most one DLHT at a time, guarded by its fastDentry
// lock), but distinct dentries may insert concurrently.
func (h *DLHT) Insert(idx uint16, sg sig.Signature, d *vfs.Dentry) {
	swept := h.Table.Insert(uint64(idx), sg, d)
	if swept > 0 {
		h.sweeps.Add(int64(swept))
	}
	if tel := h.k.Telemetry(); tel.On() {
		if swept > 0 {
			tel.Emit(telemetry.JDLHTSweep, uint64(idx), int64(swept), telemetry.NoteNone)
		}
		tel.Emit(telemetry.JDLHTInsert, d.ID(), int64(idx), telemetry.NoteNone)
	}
}

// Remove deletes the entry for (idx, sg, d), if the table holds it, for
// the reason why names; with telemetry on it is timed and journaled.
func (h *DLHT) Remove(idx uint16, sg sig.Signature, d *vfs.Dentry, why telemetry.Note) {
	tel := h.k.Telemetry()
	if !tel.On() {
		h.Table.Remove(uint64(idx), sg, d)
		return
	}
	start := telemetry.Now()
	h.Table.Remove(uint64(idx), sg, d)
	tel.Record(telemetry.HistDLHTRemove, telemetry.Since(start))
	tel.Emit(telemetry.JDLHTRemove, d.ID(), int64(idx), why)
}

// DLHTStats snapshots one table's occupancy and chain shape. A collision
// here is two live entries agreeing on as many of the index's 16 bits as
// the table has grown to use, which the paper's signature budget accepts.
type DLHTStats struct {
	vfs.ChainShape
	Sweeps int64 `json:"sweeps"` // cumulative dead-node reclaims
}

// Introspect scans the table and returns its occupancy statistics.
func (h *DLHT) Introspect() DLHTStats {
	ep := h.k.Gate().Enter()
	defer h.k.Gate().Exit(ep)
	return DLHTStats{h.Shape(), h.sweeps.Load()}
}

// auditSlabRefs scans every chain node for the slab_liveness invariant's
// DLHT half: a node's dref may legitimately fail to resolve (lazy
// teardown), but a resolving node must name a dentry that agrees it
// occupies that exact slot — Resolve matching by generation while the
// dentry's own self ref points elsewhere means a slot was recycled under
// a live reference (ABA breach). Returns the number of resolving nodes
// examined; violations go to report.
func (h *DLHT) auditSlabRefs(report func(d *vfs.Dentry, detail string)) int {
	ep := h.k.Gate().Enter()
	defer h.k.Gate().Exit(ep)
	checked := 0
	h.Scan(func(idx uint32, _ sig.Signature, dref slab.Ref, d *vfs.Dentry) bool {
		if d != nil {
			checked++
			if d.SelfRef() != dref {
				report(d, fmt.Sprintf("DLHT index %d node resolves to dentry #%d whose self ref disagrees (recycled slot reached by a live chain node)", idx, d.ID()))
			}
		}
		return true
	})
	return checked
}

// forEachEntry calls fn for every live (index, signature, dentry) entry.
// Lock-free under its own epoch section: concurrent writers may add or
// remove entries around the scan, but every dentry handed to fn stays
// resolvable for the scan's duration.
func (h *DLHT) forEachEntry(fn func(idx uint16, sg sig.Signature, d *vfs.Dentry)) {
	ep := h.k.Gate().Enter()
	defer h.k.Gate().Exit(ep)
	h.Scan(func(idx uint32, sg sig.Signature, _ slab.Ref, d *vfs.Dentry) bool {
		if d != nil && !d.IsDead() {
			fn(uint16(idx), sg, d)
		}
		return true
	})
}
