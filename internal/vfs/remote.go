package vfs

import (
	"strings"

	"dircache/internal/telemetry"
)

// Remote invalidation: the entry points a sharded deployment uses to apply
// a peer cache instance's mutations locally. A shard that learns (via the
// coherence journal subscription) that another shard renamed, unlinked, or
// chmodded a path it may have cached does not replay the mutation — it
// discards its cached view of that path wholesale, fail-closed: the next
// walk re-reads ground truth from the shared backend.

// RootDentry returns the root dentry of the kernel's initial namespace.
func (k *Kernel) RootDentry() *Dentry {
	return k.initNS.root.sb.root
}

// splitAbs splits a canonical absolute path into components ("/" → nil).
func splitAbs(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	return strings.Split(path, "/")
}

// InvalidateCachedPath applies a peer-originated invalidation for path.
// The descent is cached-only — no backend I/O — because a path this
// instance never cached cannot be stale here:
//
//   - full path cached: the dentry's subtree is torn down under a
//     beginMutation(InvalRemote) bracket (epoch bump + batch shootdown →
//     DLHT entries under the prefix die), and the parent loses
//     DIR_COMPLETE (its child set changed remotely).
//   - parent cached but the final component is not: the parent's
//     completeness and cached listing are dropped — a remotely created
//     binding may now exist that an authoritative listing would miss.
//   - an earlier component is not cached: no local state covers the
//     path; nothing to do.
//
// Returns the number of dentries torn down.
func (k *Kernel) InvalidateCachedPath(path string) int {
	comps := splitAbs(path)
	root := k.RootDentry()
	if len(comps) == 0 {
		// "/": the peer mutated the root itself. Kill every cached child
		// subtree and drop root completeness.
		end := k.beginMutation(root, InvalRemote)
		defer end()
		unlock := k.lockBig()
		defer unlock()
		k.renameWriteLock()
		defer k.renameWriteUnlock()
		k.cacheMutBegin()
		defer k.cacheMutEnd()
		n := 0
		root.EachChild(func(c *Dentry) { n += k.killSubtreeLocked(c) })
		k.dropCompleteness(root, "remote")
		return n
	}
	d := root
	for i, c := range comps {
		child := d.child(c)
		if child == nil || child.IsDead() {
			if i == len(comps)-1 {
				// The binding itself is not cached but its parent is:
				// the parent's listing/completeness may now be wrong.
				k.invalidateRemoteBinding(d)
			}
			return 0
		}
		d = child
	}
	parent := d.Parent()
	end := k.beginMutation(d, InvalRemote)
	defer end()
	unlock := k.lockBig()
	defer unlock()
	k.renameWriteLock()
	defer k.renameWriteUnlock()
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	if d.IsDead() {
		return 0
	}
	n := k.killSubtreeLocked(d)
	if parent != nil {
		k.dropCompleteness(parent, "remote")
	}
	return n
}

// invalidateRemoteBinding handles the "parent cached, binding not" case:
// the parent directory's authoritative listing claim is dropped so the
// next readdir/miss goes back to the backend.
func (k *Kernel) invalidateRemoteBinding(parent *Dentry) {
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	k.dropCompleteness(parent, "remote")
}

// dropCompleteness clears DIR_COMPLETE and the cached listing on d,
// journaling the transition when the flag was actually set.
func (k *Kernel) dropCompleteness(d *Dentry, why string) {
	wasComplete := d.Flags()&DComplete != 0
	d.clearFlags(DComplete)
	d.invalidateList()
	if wasComplete {
		if tel := k.journal(); tel != nil {
			tel.Emit(telemetry.JDirIncomplete, d.ID(), 0, why)
		}
	}
}

// CachedPathState classifies what this instance's cache currently claims
// about a path, without touching the backend. The cross-shard auditor uses
// it to compare each shard's cached claim against ground truth: a MISS is
// never stale (the next walk consults the backend), but a positive or
// negative claim that contradicts the backend after coherence has
// converged is a stale read.
type CachedPathState int

const (
	// CachedMiss: some component of the path is not cached; the cache
	// holds no claim about the path.
	CachedMiss CachedPathState = iota
	// CachedPositive: the full path is cached with a live inode.
	CachedPositive
	// CachedNegative: the path is cached as known-absent (a negative
	// dentry), or its parent is DIR_COMPLETE without the binding — both
	// authorize an ENOENT answer without consulting the backend.
	CachedNegative
)

// CachedPathClaim reports the cache's current claim about path (see
// CachedPathState). The probe is read-only and lock-light; racing
// mutations may yield a transient claim, so callers quiesce first.
func (k *Kernel) CachedPathClaim(path string) CachedPathState {
	comps := splitAbs(path)
	d := k.RootDentry()
	for i, c := range comps {
		child := d.child(c)
		if child == nil || child.IsDead() {
			if i == len(comps)-1 && d.Flags()&DComplete != 0 && !d.IsDead() {
				// Complete parent without the binding: the cache would
				// answer ENOENT authoritatively.
				return CachedNegative
			}
			return CachedMiss
		}
		d = child
	}
	if d.IsNegative() {
		return CachedNegative
	}
	if d.Inode() == nil {
		return CachedMiss
	}
	return CachedPositive
}
