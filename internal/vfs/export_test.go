package vfs

// SkewLRUCount makes the LRU's count disagree with its membership flags by
// delta — the miscounted add/remove the auditor's lru_census check exists
// to catch, fabricated after the fact so no production path carries a hook.
func (k *Kernel) SkewLRUCount(delta int64) { k.lru.count.Add(delta) }

// TableProbe is one hash-table probe made the way a slow walk makes it:
// inside an epoch section, under the era's lock where the era has one.
func (k *Kernel) TableProbe(parent *Dentry, name string) *Dentry {
	e := k.gate.Enter()
	defer k.gate.Exit(e)
	defer k.lockBig()()
	return k.table.lookup(parent, name)
}

// PlantDeadShadow links a dentry for (parent, name) into the table that
// then dies, known to no other structure but the sweeper's queue — what
// teardown leaves in a chain until the sweeper unlinks it.
func (k *Kernel) PlantDeadShadow(parent *Dentry, name string) {
	d := k.newDentry(parent.sb, parent, name)
	k.table.insert(d)
	d.setFlags(DDead)
	k.retireLater(d)
}

// PreloadPacked stands every field of every stripe's packed word gap below
// its top bit, the carry point, and moves the difference into or out of
// the field's statsCell counter, so Stats reads the same before and after
// and the next gap adds to a stripe's field carry. The kernel must be
// quiescent.
func (k *Kernel) PreloadPacked(gap uint64) {
	for i := range k.stats.cells {
		s := &k.stats.cells[i]
		for _, f := range packedFields {
			v := s.packed.Load() >> f.shift & (1<<f.bits - 1)
			d := int64(1<<(f.bits-1)-gap) - int64(v)
			s.packed.Add(uint64(d) << f.shift)
			s.statsCell[f.id].Add(-d)
		}
	}
}
