package core

import "dircache/internal/vfs"

// Fastpath-structure introspection: occupancy and shape snapshots of the
// DLHTs and PCCs, the other half of the cache introspection API (the
// dentry-cache half is vfs.Kernel.Introspect).

// PCCStats snapshots one credential's prefix check cache.
type PCCStats struct {
	CredID   uint64 `json:"cred_id"`
	Entries  int    `json:"entries"`  // valid entries right now
	Capacity int    `json:"capacity"` // the fixed table's capacity
}

// Introspection is a point-in-time snapshot of the fastpath structures.
// Gathered lock-free; counts are approximate under concurrent churn.
type Introspection struct {
	Epoch    uint64           `json:"epoch"`     // invalidation epoch word (low 16 bits: mutations in flight)
	ShootGen uint64           `json:"shoot_gen"` // batch-shootdown generation counter
	DLHTs    []vfs.ChainShape `json:"dlhts"`     // one per mount namespace
	PCCs     []PCCStats       `json:"pccs"`      // one per credential
}

// Introspect snapshots every DLHT and every registered PCC. A DLHT
// collision is two live entries agreeing on as many of the index's 16
// bits as the table has grown to use, which the paper's signature budget
// accepts.
func (c *Core) Introspect() Introspection {
	in := Introspection{Epoch: c.epoch.Load(), ShootGen: c.shootGen.Load()}
	ep := c.k.Gate().Enter()
	for _, dl := range c.k.DLHTs() {
		in.DLHTs = append(in.DLHTs, dl.Shape())
	}
	c.k.Gate().Exit(ep)
	for _, reg := range c.registered() {
		in.PCCs = append(in.PCCs, PCCStats{
			CredID:   reg.cr.ID(),
			Entries:  reg.p.Occupancy(),
			Capacity: reg.p.Entries(),
		})
	}
	return in
}
