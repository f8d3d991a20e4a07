package vfs

// SyncMode selects the synchronization era of the dentry hash table,
// reproducing the progression Figure 2 of the paper charts across Linux
// releases.
type SyncMode int

const (
	// SyncRCU (the 3.14 baseline): lock-free readers over atomic bucket
	// chains, with a global rename sequence counter validated around each
	// walk and a reader-writer fallback (RCU-walk → ref-walk).
	SyncRCU SyncMode = iota
	// SyncBucketLock (the ~3.0 era): readers take a per-bucket lock for
	// each hash probe.
	SyncBucketLock
	// SyncBigLock (the 2.6.36 era): one global lock serializes every
	// directory cache operation.
	SyncBigLock
)

func (m SyncMode) String() string {
	switch m {
	case SyncRCU:
		return "rcu"
	case SyncBucketLock:
		return "bucketlock"
	case SyncBigLock:
		return "biglock"
	}
	return "unknown"
}

// hashKey mixes (parentID, name) FNV-style, standing in for Linux's
// full_name_hash over the parent pointer and component.
func hashKey(parentID uint64, name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	h ^= parentID
	h *= prime
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

// hashTable is the (parent dentry, component name)-keyed dentry index —
// the structure Linux calls the dentry hashtable — as a Table with a
// selectable synchronization era, chained through Dentry.hlink and tagged
// by the full 64-bit name hash each dentry keeps in hkey.
type hashTable struct {
	mode SyncMode
	*Table
}

func newHashTable(mode SyncMode, k *Kernel) *hashTable {
	return &hashTable{mode: mode, Table: newTable(k, false, linked)}
}

// lookup finds the live dentry for (parent, name), or nil. In
// SyncBucketLock mode the bucket lock is held for the probe; otherwise it
// is lock-free (SyncBigLock relies on the caller's kernel-wide lock). A
// hit is checked against the dentry's own (parent, name): a rename in
// flight or a hash collision reads as a miss, which the caller answers
// from parent's child map. Callers are inside an epoch section.
func (t *hashTable) lookup(parent *Dentry, name string) *Dentry {
	hash := hashKey(parent.id, name)
	if t.mode == SyncBucketLock {
		b, _ := t.lockBucket(hash)
		defer b.mu.Unlock()
	}
	d := t.Lookup(hash, hash)
	if d == nil {
		return nil
	}
	if pn := d.pn.Load(); pn.parent != parent || pn.name != name {
		return nil
	}
	return d
}

// insert files d under its current (parent, name); dcache insertions
// happen under the parent's lock, so no live entry for the key is
// present.
func (t *hashTable) insert(d *Dentry) {
	pn := d.pn.Load()
	hash := hashKey(pn.parent.id, pn.name)
	d.hkey.Store(hash)
	t.Insert(hash, d)
}
