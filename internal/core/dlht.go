package core

import (
	"dircache/internal/sig"
	"dircache/internal/vfs"
)

// dlht is the direct lookup hash table (§3.1): a namespace's vfs.Table
// mapping full-path signatures to dentries (§4.3), which the kernel
// creates with the namespace and which chains through the dentries it
// holds. An entry is filed under the 16-bit index peeled from the path
// hash — a table of 2^n buckets uses its low n bits — and its key is the
// signature state stored in the dentry: a probe filters on the state's
// lane 0, and keyed's seqlocked compare of the whole state is the exact
// check, so an entry's identity is all 256 bits, stored once. publish and
// dropEntry journal what enters and leaves it.
type dlht = vfs.Table

// probe returns the dentry dl holds under st's key, or one whose lane 0
// merely agrees, or nil: the caller confirms with keyed.
func probe(dl *dlht, st *sig.State) *vfs.Dentry {
	return dl.Lookup(uint64(st.Index()), st.Lane0())
}

// forEachEntry calls fn for every live dentry of every DLHT, lock-free in
// its own epoch section: writers may add or remove entries around the
// scan, but every dentry handed to fn stays resolvable for its duration.
func (c *Core) forEachEntry(fn func(dl *dlht, d *vfs.Dentry)) {
	ep := c.k.Gate().Enter()
	defer c.k.Gate().Exit(ep)
	for _, dl := range c.k.DLHTs() {
		dl.Scan(func(d *vfs.Dentry) {
			if !d.IsDead() {
				fn(dl, d)
			}
		})
	}
}
