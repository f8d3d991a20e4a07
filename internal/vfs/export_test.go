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
	return k.table.lookup(parent.id, name)
}

// PlantDeadShadow links a chain node for (parent, name) that names a dead
// dentry no other structure knows — what lazy teardown leaves in a chain
// until the next insert into its bucket, or the sweeper, takes it out.
func (k *Kernel) PlantDeadShadow(parent *Dentry, name string) {
	d := k.newDentry(parent.sb, parent, name)
	d.setFlags(DDead)
	k.table.insert(parent.id, name, d)
}
