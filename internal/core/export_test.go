package core

import "dircache/internal/vfs"

// withoutShootMark is the shootdown path's one injected fault: it runs
// mutate — a mutation rooted at d — and then takes back the range mark the
// mutation stamped on d. What is left is what a shootdown that forgot its
// mark leaves: the generation bumped, batch_shoot journaled, the root
// invalidated, and every cached descendant still looking fresh. Core
// carries no hook for it: the fault is made after the fact, so only a
// single-goroutine test may use it.
func withoutShootMark(d *vfs.Dentry, mutate func()) {
	fd := fast(d)
	was := fd.shootMark.Load()
	mutate()
	fd.shootMark.Store(was)
}
