package core

import (
	"fmt"

	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// dlht is the direct lookup hash table (§3.1): a namespace's vfs.Table
// mapping full-path signatures to dentries (§4.3), which the kernel
// creates with the namespace and reaps with its own arenas. The key is the
// 240-bit signature, compared with four word compares instead of a string
// compare, and the hash an entry is filed under is the 16-bit index peeled
// from the same path hash — a table of 2^n buckets uses its low n bits —
// so an entry's identity is all 256 bits. What core adds are the functions
// below: the journal of what enters the table, its audit and its
// introspection.
type dlht = vfs.Table[sig.Signature]

// insert adds (idx, sg) → d to dl and journals it, with the dead nodes the
// insert swept from the bucket. The caller serializes per-dentry insertion
// (each dentry is in at most one DLHT at a time, recorded in its fast
// state's InTable under the state's Mu), but distinct dentries may insert
// concurrently. Removal goes through dropEntry, which journals it.
func (c *Core) insert(dl *dlht, idx uint16, sg sig.Signature, d *vfs.Dentry) {
	swept := dl.Insert(uint64(idx), sg, d)
	if tel := c.tele(); tel != nil {
		if swept > 0 {
			tel.Emit(telemetry.JDLHTSweep, uint64(idx), int64(swept), telemetry.NoteNone)
		}
		tel.Emit(telemetry.JDLHTInsert, d.ID(), int64(idx), telemetry.NoteNone)
	}
}

// DLHTStats snapshots one table's occupancy and chain shape. A collision
// here is two live entries agreeing on as many of the index's 16 bits as
// the table has grown to use, which the paper's signature budget accepts.
type DLHTStats struct {
	vfs.ChainShape
	Sweeps int64 `json:"sweeps"` // cumulative dead-node reclaims
}

// introspectDLHT scans dl and returns its occupancy statistics.
func (c *Core) introspectDLHT(dl *dlht) DLHTStats {
	ep := c.k.Gate().Enter()
	defer c.k.Gate().Exit(ep)
	return DLHTStats{dl.Shape(), int64(dl.Stats().Sweeps)}
}

// auditSlabRefs scans every chain node of dl for the slab_liveness
// invariant's DLHT half: a node's dref may legitimately fail to resolve
// (lazy teardown), but a resolving node must name a dentry that agrees it
// occupies that exact slot — Resolve matching by generation while the
// dentry's own self ref points elsewhere means a slot was recycled under
// a live reference (ABA breach). Returns the number of resolving nodes
// examined; violations go to report.
func (c *Core) auditSlabRefs(dl *dlht, report func(d *vfs.Dentry, detail string)) int {
	ep := c.k.Gate().Enter()
	defer c.k.Gate().Exit(ep)
	checked := 0
	dl.Scan(func(idx uint32, _ sig.Signature, dref slab.Ref, d *vfs.Dentry) bool {
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

// forEachEntry calls fn for every live (index, signature, dentry) entry of
// every DLHT. Lock-free under its own epoch section: concurrent writers
// may add or remove entries around the scan, but every dentry handed to fn
// stays resolvable for the scan's duration.
func (c *Core) forEachEntry(fn func(dl *dlht, idx uint16, sg sig.Signature, d *vfs.Dentry)) {
	ep := c.k.Gate().Enter()
	defer c.k.Gate().Exit(ep)
	for _, dl := range c.k.DLHTs() {
		dl.Scan(func(idx uint32, sg sig.Signature, _ slab.Ref, d *vfs.Dentry) bool {
			if d != nil && !d.IsDead() {
				fn(dl, uint16(idx), sg, d)
			}
			return true
		})
	}
}
