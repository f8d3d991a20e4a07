package vfs

import (
	"errors"

	"dircache/internal/fsapi"
	"dircache/internal/telemetry"
)

// lookupChild resolves one component under parent through the cache,
// consulting the low-level FS on a miss. It returns the positive dentry,
// or ENOENT (installing/charging negative state as configured). The §5.1
// completeness shortcut applies. errSeqRetry means parent was evicted
// since the caller's walk returned it: the caller, which has changed
// nothing yet, redoes the operation from its walk (redoEvicted).
func (k *Kernel) lookupChild(parent PathRef, name string) (*Dentry, error) {
	if d := k.table.lookup(parent.D, name); d != nil && !d.IsDead() {
		k.Count(NCacheHits, 1)
		d.MarkReferenced()
		if d.IsNegative() {
			k.Count(NNegativeHits, 1)
			return nil, fsapi.ENOENT
		}
		if d.Flags()&DUnhydrated != 0 {
			if err := k.hydrate(d); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	if k.cfg.DirCompleteness && parent.D.completeWithout(name) {
		k.Count(NCompleteShort, 1)
		return nil, fsapi.ENOENT
	}
	return k.missLookup(parent, name, nil)
}

// childDentryForCreate returns the cached dentry for (parent, name) even if
// negative, or nil when nothing is cached. Used by create-type operations
// to decide between positivizing a negative dentry and allocating afresh.
// An in-lookup placeholder owns the slot until its walk's backend call
// resolves; creating against it would mistake a transient placeholder for
// an existing entry, so we wait for the resolution and re-read.
func (k *Kernel) childDentryForCreate(parent *Dentry, name string) *Dentry {
	if d := k.table.lookup(parent, name); d != nil && !d.IsDead() {
		return d
	}
	d := parent.child(name)
	var waited *inLookupState
	for d != nil && d.Flags()&DInLookup != 0 {
		il := d.inLookup
		if il == waited {
			break // resolved but flag leaked (injected test bug)
		}
		waited = il
		<-il.done
		d = parent.child(name)
	}
	if d != nil && d.IsDead() {
		return nil
	}
	return d
}

// positivize flips a negative dentry to positive after a successful
// creation at its path. Per §5.2, negative children are evicted unless the
// new object is a (fresh, hence empty and complete) directory.
func (k *Kernel) positivize(d *Dentry, ino *Inode) {
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	isDir := ino.Mode().IsDir()
	if d.Flags()&DDeepNegative != 0 || d.nkids.Load() > 0 {
		// A deep negative's memoized prefix checks (and those of kept
		// negative children) were earned while ancestors on its path did
		// not exist; the materialized path has real permissions that now
		// gate them — invalidate before the dentry goes positive.
		end := k.beginMutation(d, InvalPerm)
		defer end.End()
	}
	if d.Flags()&DDeepNegative != 0 {
		// Deep negatives never entered the slow-walk hash table (the
		// walk used to stop above them); as a positive dentry it must be
		// findable there.
		pn := d.pn.Load()
		if pn.parent != nil {
			k.table.insert(d)
		}
	}
	d.mu.Lock()
	kids := make([]*Dentry, 0, len(d.children))
	if !isDir {
		for _, c := range d.children {
			kids = append(kids, c)
		}
	}
	d.setInode(ino)
	d.mu.Unlock()
	for _, c := range kids {
		k.killSubtreeLocked(c)
	}
	d.clearFlags(DNegative | DDeepNegative | DNotDir)
	if isDir && k.cfg.DirCompleteness {
		d.setFlags(DComplete)
		if tel := k.journal(); tel != nil {
			tel.Emit(telemetry.JDirComplete, d.ID(), 0, telemetry.NoteCreate)
		}
	}
	if p := d.Parent(); p != nil {
		p.invalidateList()
	}
}

// killDentryKeepComplete removes d (and its cached descendants) from the
// cache without clearing the parent's completeness (used when the removal
// mirrors a real FS change, so the cache remains an exact view).
func (k *Kernel) killDentryKeepComplete(d *Dentry) {
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	k.killSubtreeLocked(d)
}

// killSubtreeLocked tears down d and every cached descendant inside the
// caller's cacheMut bracket: one bracket and one aggregate journal event
// for the whole subtree instead of one per dentry (rm -r teardown used to
// pay a bracket + emission per child). Per-dentry hash-table/LRU removal
// and the OnEvict hook are structurally required and stay. Returns the
// number of dentries killed.
func (k *Kernel) killSubtreeLocked(d *Dentry) int {
	n := k.killRecurse(d)
	k.Count(NEvictions, int64(n))
	if tel := k.journal(); tel != nil {
		tel.Emit(telemetry.JEvict, d.ID(), int64(n), telemetry.NoteTeardown)
	}
	return n
}

// killRecurse marks a subtree dead, parent first: DDead is set before the
// children are enumerated, so an install racing the kill either lands in
// the enumeration or is refused by linkChildLocked. Only the coherence-
// critical work happens here: the dead flag (lock-free readers discard),
// parent detach (child maps are authoritative), LRU removal (capacity
// accounting), and the OnEvict hook (seq bump and DLHT removal).
// The expensive remainder — hash-chain unlink and slab-slot
// retirement — is deferred to the sweeper, which is what makes rm -r's
// teardown O(1) per dentry on the operation's critical path.
func (k *Kernel) killRecurse(d *Dentry) int {
	n := 1
	d.setFlags(DDead)
	// Deep-negative children (unlink of a file with cached ENOTDIR
	// children, alias children of a symlink).
	d.EachChild(func(c *Dentry) { n += k.killRecurse(c) })
	if pn := d.pn.Load(); pn.parent != nil {
		pn.parent.detachChild(pn.name, d)
	}
	k.lru.remove(d)
	if k.hooks != nil {
		k.hooks.OnEvict(d)
	}
	k.retireLater(d)
	return n
}

// discardDentry throws away a freshly allocated dentry that lost an
// install race or found its parent dead: it never entered the hash table
// or a child map, so only its LRU entry (if it has one) and the slab
// slot need reclaiming.
func (k *Kernel) discardDentry(d *Dentry) {
	d.setFlags(DDead)
	k.lru.remove(d)
	k.retireLater(d)
}

// installNewChild creates and wires a positive dentry for a just-created
// node. If a negative dentry is cached at the name it is positivized
// instead. Returns nil when the parent dentry died under the create (the
// node exists in the FS; the next walk finds it). Every creation reaches it
// after its backend call, so it publishes the new path: a peer may hold a
// negative dentry or a complete listing that the binding falsifies.
func (k *Kernel) installNewChild(parent PathRef, name string, info fsapi.NodeInfo) *Dentry {
	defer k.publish(parent.D, name, "create")
	sb := parent.D.sb
	ino := sb.inodeFor(info)
	if d := k.childDentryForCreate(parent.D, name); d != nil {
		if d.IsNegative() {
			k.positivize(d, ino)
			return d
		}
		ino.put()
		return d // concurrent creation already installed it
	}
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	d := k.allocDentry(sb, parent.D, name, ino)
	if info.Mode.IsDir() && k.cfg.DirCompleteness {
		d.setFlags(DComplete)
	}
	res := k.installDedup(parent.D, name, d, true)
	if res == d && info.Mode.IsDir() && k.cfg.DirCompleteness {
		if tel := k.journal(); tel != nil {
			tel.Emit(telemetry.JDirComplete, d.ID(), 0, telemetry.NoteCreate)
		}
	}
	return res
}

// redoEvicted runs op again while it reports errSeqRetry — the parent its
// walk resolved was evicted before lookupChild could install under it, and
// a fresh walk re-reads a live one. Every op that calls lookupChild does
// so before its first side effect. A parent that stays gone (a removed
// working directory) is ESTALE.
func redoEvicted(op func() error) error {
	for try := 0; try < 4; try++ {
		if err := op(); err != errSeqRetry {
			return err
		}
	}
	return fsapi.ESTALE
}

// Create makes a regular file (open(O_CREAT|O_EXCL) without the handle).
func (t *Task) Create(path string, mode fsapi.Mode) error {
	f, err := t.Open(path, O_CREAT|O_EXCL|O_WRONLY, mode)
	if err != nil {
		return err
	}
	return f.Close()
}

// Mkdir creates a directory. The new directory is born DIR_COMPLETE when
// completeness caching is on (§5.1).
func (t *Task) Mkdir(path string, mode fsapi.Mode) error {
	k := t.k
	defer k.leaveSection(k.gate.Enter(), k.lru.Epoch())
	parent, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	c := t.Cred()
	if err := k.mayCreate(c, parent.Mnt, parent.D.Inode()); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	unlock := k.lockBig()
	defer unlock()
	if d := k.childDentryForCreate(parent.D, name); d != nil && !d.IsNegative() {
		return fsapi.EEXIST
	}
	// The bracket opens before the backend call: from that call until the
	// cache catches up, the file system is ahead of the cache.
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	info, err := parent.D.sb.fs.Mkdir(parent.D.Inode().ID(), name, mode, c.UID, c.GID)
	if err != nil {
		return err
	}
	k.installNewChild(parent, name, info)
	k.refreshInode(parent.D)
	return nil
}

// Symlink creates a symbolic link at path pointing to target.
func (t *Task) Symlink(target, path string) error {
	k := t.k
	defer k.leaveSection(k.gate.Enter(), k.lru.Epoch())
	parent, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	c := t.Cred()
	if err := k.mayCreate(c, parent.Mnt, parent.D.Inode()); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	unlock := k.lockBig()
	defer unlock()
	if d := k.childDentryForCreate(parent.D, name); d != nil && !d.IsNegative() {
		return fsapi.EEXIST
	}
	k.cacheMutBegin() // before the backend call, as in Mkdir
	defer k.cacheMutEnd()
	info, err := parent.D.sb.fs.Symlink(parent.D.Inode().ID(), name, target, c.UID, c.GID)
	if err != nil {
		return err
	}
	k.installNewChild(parent, name, info)
	k.refreshInode(parent.D)
	return nil
}

// Link creates a hard link newpath referring to oldpath's inode.
func (t *Task) Link(oldpath, newpath string) error {
	k := t.k
	defer k.leaveSection(k.gate.Enter(), k.lru.Epoch())
	oldRef, err := t.Walk(oldpath, WalkNoFollow)
	if err != nil {
		return err
	}
	oldIno := oldRef.D.Inode()
	if oldIno == nil {
		return fsapi.ENOENT
	}
	if oldIno.Mode().IsDir() {
		return fsapi.EPERM
	}
	parent, name, err := t.walkParent(newpath)
	if err != nil {
		return err
	}
	if parent.Mnt.sb != oldRef.Mnt.sb {
		return fsapi.EXDEV
	}
	c := t.Cred()
	if err := k.mayCreate(c, parent.Mnt, parent.D.Inode()); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	unlock := k.lockBig()
	defer unlock()
	if d := k.childDentryForCreate(parent.D, name); d != nil && !d.IsNegative() {
		return fsapi.EEXIST
	}
	k.cacheMutBegin() // before the backend call, as in Mkdir
	defer k.cacheMutEnd()
	info, err := parent.D.sb.fs.Link(parent.D.Inode().ID(), name, oldIno.ID())
	if err != nil {
		return err
	}
	k.installNewChild(parent, name, info)
	oldIno.applyInfo(info)
	return nil
}

// Unlink removes a file. With AggressiveNegatives the dentry survives as a
// negative (§5.2: "keep negative dentries after a file is removed, in case
// the path is reused later").
func (t *Task) Unlink(path string) error {
	return redoEvicted(func() error { return t.unlink(path) })
}

func (t *Task) unlink(path string) error {
	k := t.k
	// Deferred first, so the reap runs once the section has closed: inside
	// it, the section pins the epoch short of what this operation retires.
	defer k.reapSome()
	defer k.leaveSection(k.gate.Enter(), k.lru.Epoch())
	parent, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	d, err := k.lookupChild(parent, name)
	if err != nil {
		return err
	}
	ino := d.Inode()
	if ino.Mode().IsDir() {
		return fsapi.EISDIR
	}
	c := t.Cred()
	if err := k.mayDelete(c, parent.Mnt, parent.D.Inode(), ino); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	// The dentry flips negative in place: its path and prefix checks stay
	// valid, so no fastpath shootdown is needed (§3.2 invalidates only
	// path- or permission-changing mutations) — unless cached children
	// (ENOTDIR deep negatives, symlink aliases) hang below it.
	bracket := d.nkids.Load() > 0
	if bracket {
		end := k.beginMutation(d, InvalUnlink)
		defer end.End()
	}
	unlock := k.lockBig()
	defer unlock()
	k.cacheMutBegin() // before the backend call, as in Mkdir
	defer k.cacheMutEnd()
	if err := parent.D.sb.fs.Unlink(parent.D.Inode().ID(), name); err != nil {
		return err
	}
	if !bracket {
		k.publish(d, "", InvalUnlink.String()) // peers may hold it positive
	}
	k.dentryGone(d, ino)
	k.refreshInode(parent.D)
	return nil
}

// Rmdir removes an empty directory.
func (t *Task) Rmdir(path string) error {
	return redoEvicted(func() error { return t.rmdir(path) })
}

func (t *Task) rmdir(path string) error {
	k := t.k
	defer k.reapSome() // after the section closes, as in unlink
	defer k.leaveSection(k.gate.Enter(), k.lru.Epoch())
	parent, name, err := t.walkParent(path)
	if err != nil {
		return err
	}
	d, err := k.lookupChild(parent, name)
	if err != nil {
		return err
	}
	ino := d.Inode()
	if !ino.Mode().IsDir() {
		return fsapi.ENOTDIR
	}
	c := t.Cred()
	if err := k.mayDelete(c, parent.Mnt, parent.D.Inode(), ino); err != nil {
		return err
	}
	if err := mayWriteMnt(parent.Mnt); err != nil {
		return err
	}
	if d.refs.Load() > 0 {
		return fsapi.EBUSY
	}
	// Like unlink: the removed directory flips negative in place. Cached
	// (necessarily negative) children are torn down individually below;
	// a full shootdown is only needed when they exist.
	bracket := d.nkids.Load() > 0
	if bracket {
		end := k.beginMutation(d, InvalUnlink)
		defer end.End()
	}
	unlock := k.lockBig()
	defer unlock()
	k.cacheMutBegin() // before the backend call, as in Mkdir
	defer k.cacheMutEnd()
	if err := parent.D.sb.fs.Rmdir(parent.D.Inode().ID(), name); err != nil {
		return err
	}
	if !bracket {
		k.publish(d, "", InvalUnlink.String()) // as in unlink
	}
	// The FS guaranteed emptiness; cached children can only be negatives —
	// drop them along with the dentry or its negative conversion.
	k.dentryGone(d, ino)
	k.refreshInode(parent.D)
	return nil
}

// dentryGone handles the cache side of a successful unlink/rmdir: the
// dentry either becomes a negative (aggressive mode, or idle in baseline
// per Linux behaviour) or leaves the cache.
func (k *Kernel) dentryGone(d *Dentry, ino *Inode) {
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	keepNegative := k.cfg.AggressiveNegatives ||
		(d.refs.Load() == 0 && d.nkids.Load() == 0)
	if keepNegative && !k.negativesAllowed(d.sb) {
		keepNegative = false
	}
	if keepNegative {
		// Drop (deep-negative / alias) children: their anchor semantics
		// change with the node gone. Each child subtree falls inside this
		// function's cacheMut bracket — one bracket for the whole teardown.
		d.EachChild(func(c *Dentry) { k.killSubtreeLocked(c) })
		wasComplete := d.Flags()&DComplete != 0
		d.mu.Lock()
		d.setInode(nil)
		d.setFlags(DNegative)
		d.clearFlags(DComplete | DUnhydrated)
		d.mu.Unlock()
		if wasComplete {
			if tel := k.journal(); tel != nil {
				tel.Emit(telemetry.JDirIncomplete, d.ID(), 0, telemetry.NoteGone)
			}
		}
		// The dentry flips negative in place: the parent's cached
		// listing no longer reflects its children.
		if p := d.Parent(); p != nil {
			p.invalidateList()
		}
	} else {
		k.killDentryKeepComplete(d)
	}
	// Refresh or forget the inode: another hard link may keep it alive.
	if info, err := ino.sb.fs.GetNode(ino.ID()); err == nil {
		ino.applyInfo(info)
	} else {
		ino.nlink.Store(0)
		ino.sb.forgetInode(ino.ID())
	}
}

// refreshInode re-reads d's metadata from the backend — after a mutation
// beneath a directory (size/mtime changed), or when a peer shard changed
// its permissions — and reports whether there was an inode to refresh and
// the backend still knows it.
func (k *Kernel) refreshInode(d *Dentry) bool {
	ino := d.Inode()
	return ino != nil && ino.refresh()
}

// Rename moves oldpath to newpath (same mount only), carrying the paper's
// §3.2 coherence protocol: hooks invalidate the subtree before the change,
// the global rename seqlock blocks optimistic walks during it, and the
// dentry moves atomically with respect to the hash table.
func (t *Task) Rename(oldpath, newpath string) error {
	return redoEvicted(func() error { return t.rename(oldpath, newpath) })
}

func (t *Task) rename(oldpath, newpath string) error {
	k := t.k
	defer k.reapSome() // after the section closes, as in unlink
	defer k.leaveSection(k.gate.Enter(), k.lru.Epoch())
	oldParent, oldName, err := t.walkParent(oldpath)
	if err != nil {
		return err
	}
	newParent, newName, err := t.walkParent(newpath)
	if err != nil {
		return err
	}
	if oldParent.Mnt != newParent.Mnt {
		return fsapi.EXDEV
	}
	d, err := k.lookupChild(oldParent, oldName)
	if err != nil {
		return err
	}
	c := t.Cred()
	if err := k.mayDelete(c, oldParent.Mnt, oldParent.D.Inode(), d.Inode()); err != nil {
		return err
	}
	if err := mayWriteMnt(oldParent.Mnt); err != nil {
		return err
	}

	// Resolve any existing target (for permission + cache teardown).
	var target *Dentry
	if td, err := k.lookupChild(newParent, newName); err == nil {
		target = td
	} else if !errors.Is(err, fsapi.ENOENT) {
		return err
	}
	if target == d {
		return nil // same inode via the same dentry: no-op
	}
	if target != nil {
		if err := k.mayDelete(c, newParent.Mnt, newParent.D.Inode(), target.Inode()); err != nil {
			return err
		}
		// Renaming a directory onto a path inside itself etc. is left to
		// the FS's ENOTEMPTY/EISDIR checks; loop prevention:
		if d.Inode().Mode().IsDir() && isAncestor(d, newParent.D) {
			return fsapi.EINVAL
		}
	} else {
		if err := k.mayCreate(c, newParent.Mnt, newParent.D.Inode()); err != nil {
			return err
		}
		if d.Inode().Mode().IsDir() && isAncestor(d, newParent.D) {
			return fsapi.EINVAL
		}
	}

	// §3.2: shoot down cached fastpath state before the change.
	endOld := k.beginMutation(d, InvalRename)
	defer endOld.End()
	if target != nil {
		endTgt := k.beginMutation(target, InvalUnlink)
		defer endTgt.End()
	}

	unlock := k.lockBig()
	defer unlock()

	k.renameWriteLock()
	defer k.renameWriteUnlock()

	k.cacheMutBegin() // before the backend call, as in Mkdir
	defer k.cacheMutEnd()
	if err := oldParent.D.sb.fs.Rename(oldParent.D.Inode().ID(), oldName,
		newParent.D.Inode().ID(), newName); err != nil {
		return err
	}

	// Cache side. Tear down the replaced target first.
	if target != nil {
		tIno := target.Inode()
		target.setFlags(DDead) // before its children are enumerated: see killRecurse
		target.EachChild(func(c *Dentry) { k.killSubtreeLocked(c) })
		newParent.D.detachChild(newName, target)
		k.lru.remove(target)
		if tel := k.journal(); tel != nil {
			tel.Emit(telemetry.JEvict, target.ID(), 0, telemetry.NoteRenameTarget)
		}
		if k.hooks != nil {
			k.hooks.OnEvict(target)
		}
		k.retireLater(target)
		if tIno != nil {
			if info, err := tIno.sb.fs.GetNode(tIno.ID()); err == nil {
				tIno.applyInfo(info)
			} else {
				tIno.sb.forgetInode(tIno.ID())
			}
		}
	}

	// Move d: (oldParent, oldName) → (newParent, newName), d_move-style.
	// Whatever else holds the destination name (not a live target — those
	// were handled above — but a residual negative, a readdir stub, or a
	// walk's in-lookup placeholder installed while this rename ran) is
	// displaced by the attach and dies before the insert, or it would
	// shadow the moved dentry in the caches.
	k.table.Remove(d)
	oldParent.D.detachChild(oldName, d)
	d.pn.Store(&parentName{parent: newParent.D, name: newName})
	if resid, ok := newParent.D.attachChild(d); ok {
		if resid != nil {
			k.killSubtreeLocked(resid)
		}
		k.table.insert(d)
	} else {
		// The destination directory's dentry died under the rename: the
		// moved subtree leaves the cache and the next walk re-reads it.
		k.killSubtreeLocked(d)
	}

	// §5.2: the old path is now known absent — keep it as a negative.
	if k.cfg.AggressiveNegatives && k.negativesAllowed(oldParent.D.sb) {
		neg := k.allocDentry(oldParent.D.sb, oldParent.D, oldName, nil)
		k.installDedup(oldParent.D, oldName, neg, true)
	}

	k.refreshInode(oldParent.D)
	if newParent.D != oldParent.D {
		k.refreshInode(newParent.D)
	}
	k.refreshInode(d)
	if target == nil {
		// A replaced target's bracket names the destination; a free one
		// is named by nothing else, yet a peer may hold a negative dentry
		// there or a complete listing of its parent.
		k.publish(newParent.D, newName, "rename-dst")
	}
	return nil
}

// isAncestor reports whether a is an ancestor of (or equal to) b in the
// dentry tree.
func isAncestor(a, b *Dentry) bool {
	for cur := b; cur != nil; cur = cur.Parent() {
		if cur == a {
			return true
		}
	}
	return false
}

// Open opens (optionally creating) a file and returns a handle.
func (t *Task) Open(path string, flags OpenFlag, mode fsapi.Mode) (*File, error) {
	return t.openAt(PathRef{}, path, flags, mode)
}

// OpenAt opens path relative to the open directory handle dirf (the
// openat(2) shape). A nil dirf or absolute path behaves like Open.
func (t *Task) OpenAt(dirf *File, path string, flags OpenFlag, mode fsapi.Mode) (*File, error) {
	if dirf == nil || (len(path) > 0 && path[0] == '/') {
		return t.openAt(PathRef{}, path, flags, mode)
	}
	if !dirf.ref.D.IsDir() {
		return nil, fsapi.ENOTDIR
	}
	return t.openAt(dirf.ref, path, flags, mode)
}

// openAt implements Open starting at `at` for relative paths.
func (t *Task) openAt(at PathRef, path string, flags OpenFlag, mode fsapi.Mode) (*File, error) {
	var f *File
	err := redoEvicted(func() (err error) {
		f, err = t.openAtOnce(at, path, flags, mode)
		return err
	})
	return f, err
}

func (t *Task) openAtOnce(at PathRef, path string, flags OpenFlag, mode fsapi.Mode) (*File, error) {
	k := t.k
	defer k.leaveSection(k.gate.Enter(), k.lru.Epoch())
	c := t.Cred()

	var ref PathRef
	if flags&O_CREAT != 0 {
		parent, name, err := t.walkParentAt(at, path)
		if err != nil {
			return nil, err
		}
		unlock := k.lockBig()
		d, cerr := k.lookupChild(parent, name)
		switch {
		case cerr == nil:
			unlock()
			if flags&O_EXCL != 0 {
				return nil, fsapi.EEXIST
			}
			ref = PathRef{Mnt: parent.Mnt, D: d}
			if d.IsSymlink() {
				if flags&O_NOFOLLOW != 0 {
					return nil, fsapi.ELOOP
				}
				// Re-walk through the link.
				ref, err = t.WalkFrom(at, path, 0)
				if err != nil {
					return nil, err
				}
			}
		case errors.Is(cerr, fsapi.ENOENT):
			if err := k.mayCreate(c, parent.Mnt, parent.D.Inode()); err != nil {
				unlock()
				return nil, err
			}
			if err := mayWriteMnt(parent.Mnt); err != nil {
				unlock()
				return nil, err
			}
			k.cacheMutBegin() // before the backend call, as in Mkdir
			info, err := parent.D.sb.fs.Create(parent.D.Inode().ID(), name, mode, c.UID, c.GID)
			if err != nil {
				k.cacheMutEnd()
				unlock()
				if errors.Is(err, fsapi.EEXIST) && flags&O_EXCL == 0 {
					// Lost a create race benignly; reopen.
					return t.openAt(at, path, flags&^O_CREAT, mode)
				}
				return nil, err
			}
			d = k.installNewChild(parent, name, info)
			k.refreshInode(parent.D)
			k.cacheMutEnd()
			unlock()
			if d == nil {
				// The directory's dentry died under the create; reach
				// the new file through a fresh walk.
				return t.openAt(at, path, flags&^(O_CREAT|O_EXCL), mode)
			}
			ref = PathRef{Mnt: parent.Mnt, D: d}
		default:
			unlock()
			return nil, cerr
		}
	} else {
		var fl WalkFlags
		if flags&O_NOFOLLOW != 0 {
			fl |= WalkNoFollow
		}
		if flags&O_DIRECTORY != 0 {
			fl |= WalkDirectory
		}
		var err error
		ref, err = t.WalkFrom(at, path, fl)
		if err != nil {
			return nil, err
		}
	}

	ino := ref.D.Inode()
	if ino == nil {
		return nil, fsapi.ENOENT
	}
	mode2 := ino.Mode()
	if mode2.IsSymlink() {
		return nil, fsapi.ELOOP // O_NOFOLLOW on a symlink
	}
	if flags&O_DIRECTORY != 0 && !mode2.IsDir() {
		return nil, fsapi.ENOTDIR
	}
	if mode2.IsDir() && flags&O_ACCMODE != O_RDONLY {
		return nil, fsapi.EISDIR
	}
	if err := k.permission(c, ref.Mnt, ino, maskForOpen(flags)); err != nil {
		return nil, err
	}
	if flags&O_ACCMODE != O_RDONLY {
		if err := mayWriteMnt(ref.Mnt); err != nil {
			return nil, err
		}
	}
	// Pathname mediation (AppArmor-style LSMs): consulted once per open
	// with the object's canonical path, outside the lookup fastpath.
	if !k.lsm.Empty() {
		if err := k.lsm.CheckPath(c, ref.D.PathTo(), maskForOpen(flags)); err != nil {
			return nil, err
		}
	}
	if flags&O_TRUNC != 0 && mode2.IsRegular() && flags&O_ACCMODE != O_RDONLY {
		var zero int64
		info, err := ref.D.sb.fs.SetAttr(ino.ID(), fsapi.SetAttr{Size: &zero})
		if err != nil {
			return nil, err
		}
		ino.applyInfo(info)
	}

	if !ref.D.holdInode(ino) {
		return nil, errSeqRetry // the dentry lost its inode: walk again
	}
	f := &File{t: t, ref: ref, ino: ino, flags: flags}
	ref.D.Ref()
	if r, ok := ref.D.sb.fs.(fsapi.NodeRetainer); ok {
		r.RetainNode(ino.ID())
		f.release = func() { r.ReleaseNode(ino.ID()) }
	}
	return f, nil
}
