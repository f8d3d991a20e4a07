package vfs

import (
	"sync"
	"sync/atomic"

	"dircache/internal/sig"
)

// FastDentry is the fastpath's per-dentry state — the paper's struct
// fast_dentry (Figure 5), embedded in the dentry, so a cached name is one
// slab slot with one lifecycle. The VFS declares the layout, threads the
// DLHT's chains through Link and reads InTable in its audit; the installed
// Hooks own every other field, method and invariant (internal/core
// documents them) and initialize it for each new tenant of a slot
// (Hooks.NewDentry). A baseline kernel leaves it zero. The fields a hit
// reads lead: a DLHT probe filters on State's lane 0 and checks InTable.
type FastDentry struct {
	Seq       atomic.Uint64         // version: a bump stales every PCC entry naming the dentry
	ValidGen  atomic.Uint64         // range-shootdown generation the state is valid against
	MntP      atomic.Pointer[Mount] // the mount the signature was computed under
	State     sig.Shared            // signature state of the canonical path; a DLHT entry's key
	Link      Link                  // the DLHT chain through this dentry
	Touches   atomic.Uint32         // populations declined by admission control
	InTable   atomic.Pointer[Table] // the one DLHT holding the dentry, or nil
	ShootMark atomic.Uint64         // a range shootdown over the descendants, when nonzero

	Mu        sync.Mutex    // guards PubSeq and the stores of InTable and State
	Target    atomic.Uint64 // a followed symlink's target, as a packed dentry ref
	TargetSeq atomic.Uint64 // the target's Seq when Target was cached
	PubSeq    uint64        // Seq when the table entry was published
}
