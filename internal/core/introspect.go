package core

// Fastpath-structure introspection: occupancy and shape snapshots of the
// DLHTs and PCCs, the other half of the cache introspection API (the
// dentry-cache half is vfs.Kernel.Introspect).

// PCCStats snapshots one credential's prefix check cache.
type PCCStats struct {
	CredID   uint64 `json:"cred_id"`
	Entries  int    `json:"entries"`  // valid entries right now
	Capacity int    `json:"capacity"` // current generation's capacity
	Hits     int64  `json:"hits"`
	Misses   int64  `json:"misses"`
	Resizes  int64  `json:"resizes"`
	Flushes  int64  `json:"flushes"`
}

// Introspection is a point-in-time snapshot of the fastpath structures.
// Gathered lock-free; counts are approximate under concurrent churn.
type Introspection struct {
	Epoch       uint64      `json:"epoch"`        // invalidation epoch word (low 16 bits: mutations in flight)
	Populations int64       `json:"populations"`  // lifetime DLHT+PCC population events
	StaleTokens int64       `json:"stale_tokens"` // publishes declined due to racing mutations
	ShootGen    uint64      `json:"shoot_gen"`    // batch-shootdown generation counter
	Admitted    int64       `json:"admitted"`     // populations allowed on Nth touch
	Deferred    int64       `json:"deferred"`     // populations declined by admission control
	BatchShoots int64       `json:"batch_shoots"` // range shootdowns taken instead of subtree walks
	LazyShoots  int64       `json:"lazy_shoots"`  // stale entries lazily discarded
	DLHTs       []DLHTStats `json:"dlhts"`        // one per mount namespace
	PCCs        []PCCStats  `json:"pccs"`         // one per credential
}

// Introspect snapshots every DLHT and every registered PCC.
func (c *Core) Introspect() Introspection {
	in := Introspection{
		Epoch:       c.epoch.Load(),
		Populations: c.stats.populations.Load(),
		StaleTokens: c.stats.staleTokens.Load(),
		ShootGen:    c.shootGen.Load(),
		Admitted:    c.stats.admitted.Load(),
		Deferred:    c.stats.deferred.Load(),
		BatchShoots: c.stats.batchShootdowns.Load(),
		LazyShoots:  c.stats.lazyShootdowns.Load(),
	}
	for _, dl := range c.k.DLHTs() {
		in.DLHTs = append(in.DLHTs, c.introspectDLHT(dl))
	}
	for _, reg := range c.registered() {
		hits, misses := reg.p.Stats()
		in.PCCs = append(in.PCCs, PCCStats{
			CredID:   reg.cr.ID(),
			Entries:  reg.p.Occupancy(),
			Capacity: reg.p.Entries(),
			Hits:     hits,
			Misses:   misses,
			Resizes:  reg.p.Resizes(),
			Flushes:  reg.p.Flushes(),
		})
	}
	return in
}
