package core

import (
	"reflect"
	"sync/atomic"
	"unsafe"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/lsm"
	"dircache/internal/vfs"
)

// withoutShootMark is the shootdown path's one injected fault: it runs
// mutate — a mutation rooted at d — and then takes back the range mark the
// mutation stamped on d. What is left is what a shootdown that forgot its
// mark leaves: the generation bumped, batch_shoot journaled, the root
// invalidated, and every cached descendant still looking fresh. The mark
// is one word, so taking it back takes back its class too. Core carries
// no hook for it: the fault is made after the fact, so only a
// single-goroutine test may use it.
func withoutShootMark(d *vfs.Dentry, mutate func()) {
	fd := fast(d)
	was := fd.shootMark.w.Load()
	mutate()
	fd.shootMark.w.Store(was)
}

// permGate is the re-check path's injected fault, and like withoutShootMark
// it needs nothing from production code: it is a security module, so the
// kernel calls it from inside every permission check, the prefix re-check's
// climb included. Armed, it runs fire once, on the calling walker's own
// goroutine, inside the first search check of `on` by a credential with
// uid — which puts a whole mutation at a chosen step of somebody's climb,
// deterministically.
type permGate struct {
	on    fsapi.NodeID
	uid   uint32
	fire  func()
	armed bool
}

func (g *permGate) Name() string { return "perm-gate" }

func (g *permGate) InodePermission(c *cred.Cred, ino lsm.InodeView, mask lsm.Mask) error {
	if g.armed && c.UID == g.uid && ino.ID == g.on && mask&lsm.MayExec != 0 {
		g.armed = false
		g.fire()
	}
	return nil
}

// leakInLookup is the in-lookup protocol's injected fault: it sets
// DInLookup on a dentry that resolved and was published long ago, which is
// what a resolved miss that never cleared the flag leaves in the DLHT. The
// flag word is the kernel's own and nothing exported writes it, so the
// fault reaches it by address; like withoutShootMark it is made after the
// fact, and the kernel carries no hook for it.
func leakInLookup(d *vfs.Dentry) {
	f := reflect.ValueOf(d).Elem().FieldByName("flags")
	(*atomic.Uint32)(unsafe.Pointer(f.UnsafeAddr())).Or(uint32(vfs.DInLookup))
}
