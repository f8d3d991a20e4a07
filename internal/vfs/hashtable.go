package vfs

import "dircache/internal/slab"

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

// nameKey is the dentry hashtable's key: a parent dentry's id and a
// component name.
type nameKey struct {
	parentID uint64
	name     string
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
// selectable synchronization era and no ceiling on its growth.
type hashTable struct {
	mode SyncMode
	*Table[nameKey]
}

func newHashTable(mode SyncMode, k *Kernel) *hashTable {
	nodes := slab.New[TableNode[nameKey]](k.gate, slab.Options{})
	return &hashTable{mode: mode, Table: NewTable(k, nodes, 0)}
}

// lookup finds the live dentry for (parentID, name), or nil. In
// SyncBucketLock mode the bucket lock is held for the probe, and a grow
// cannot replace the array under a held bucket; in the other modes the
// probe is lock-free (SyncBigLock relies on the kernel-wide lock held by
// the caller). Callers are inside an epoch section.
func (t *hashTable) lookup(parentID uint64, name string) *Dentry {
	hash := hashKey(parentID, name)
	if t.mode == SyncBucketLock {
		defer t.lockBucket(hash).mu.Unlock()
	}
	return t.Lookup(hash, nameKey{parentID, name})
}

// insert adds d under (parentID, name); dcache insertions happen under the
// parent's lock, so no live entry for the key is present.
func (t *hashTable) insert(parentID uint64, name string, d *Dentry) {
	t.Insert(hashKey(parentID, name), nameKey{parentID, name}, d)
}

func (t *hashTable) remove(parentID uint64, name string, d *Dentry) {
	t.Remove(hashKey(parentID, name), nameKey{parentID, name}, d)
}
