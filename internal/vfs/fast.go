package vfs

import (
	"sync"
	"sync/atomic"

	"dircache/internal/sig"
)

// FastDentry is the fastpath's per-dentry state — the paper's struct
// fast_dentry (Figure 5), embedded in the dentry as the paper embeds it, so
// a cached name is one slab slot with one lifecycle. The VFS declares the
// layout and never reads or writes a field: the installed Hooks own every
// method and invariant on it (internal/core documents them), initialize it
// for each new tenant of a slot (Hooks.NewDentry), and a baseline kernel
// leaves it zero. The dentry slot's grace period covers its readers. The
// fields a fastpath hit reads lead.
type FastDentry struct {
	Seq       atomic.Uint64         // version: a bump stales every PCC entry naming the dentry
	ValidGen  atomic.Uint64         // range-shootdown generation the state is valid against
	MntP      atomic.Pointer[Mount] // the mount the signature was computed under
	State     sig.Shared            // signature state of the canonical path
	ShootMark atomic.Uint64         // a range shootdown over the descendants, when nonzero
	Touches   atomic.Uint32         // populations declined by admission control

	Mu        sync.Mutex            // guards Idx, Sg, InTable, PubSeq and State's stores
	Idx       uint16                // DLHT bucket index of the published signature
	Sg        sig.Signature         // the published signature
	InTable   *Table[sig.Signature] // the one DLHT holding the dentry, or nil
	Target    atomic.Uint64         // a followed symlink's target, as a packed dentry ref
	TargetSeq atomic.Uint64         // the target's Seq when Target was cached
	PubSeq    uint64                // Seq when the table entry was published
}
