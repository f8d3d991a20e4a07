package core

import (
	"dircache/internal/fsapi"
	"dircache/internal/sig"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// admitPopulate is the §3.1 population gate with admission control: DLHT
// insertion and PCC memoization only happen on a dentry's Nth slow-path
// touch (Config.AdmitAfter, default 2), or at once if the dentry is
// already published, so single-touch paths — tar extraction streams,
// rm -r teardown scans — never pay population cost for entries that will
// not be revisited.
func (c *Core) admitPopulate(d *vfs.Dentry) bool {
	if c.admitAfter <= 1 {
		return true
	}
	fd := fast(d)
	n := fd.Touches.Add(1)
	fd.Mu.Lock()
	published := fd.InTable != nil
	fd.Mu.Unlock()
	if published {
		// Already paid for (e.g. an unlinked file's dentry recycled to a
		// negative in place, still published): deferring would only block
		// refreshes and other credentials' PCC memoization.
		return true
	}
	if int(n) >= c.admitAfter {
		c.stats.admitted.Add(1)
		if tel := c.tele(); tel != nil {
			tel.Emit(telemetry.JAdmitted, d.ID(), int64(n), telemetry.NoteNth)
		}
		return true
	}
	c.stats.deferred.Add(1)
	if tel := c.tele(); tel != nil {
		tel.Emit(telemetry.JAdmitDefer, d.ID(), int64(n), telemetry.NoteNone)
	}
	return false
}

// EndSlowLookup implements vfs.Hooks: after a successful slow walk, hash
// the requested path's canonical lexical form and populate the DLHT with
// the lexical dentry and the PCC with the result's passed prefix check
// (§3.1: the DLHT and PCC are lazily populated by slowpath lookups).
func (c *Core) EndSlowLookup(token uint64, t *vfs.Task, start vfs.PathRef, path string, lexical, res vfs.PathRef) {
	if !c.tokenValid(token) {
		c.stats.staleTokens.Add(1)
		return
	}
	if lexical.D == nil || res.D == nil || lexical.D.IsDead() || res.D.IsDead() {
		return
	}
	if !c.admitPopulate(lexical.D) {
		return
	}
	ns := t.Namespace()
	dl := ns.DLHT()
	pcc := c.pccFor(t.Cred())
	if !c.startTrusted(t, start, pcc, token) {
		return
	}

	// For a path with no "." or ".." components the canonical lexical
	// hash equals the dentry's own canonical-path state (the start's
	// state is canonical, and mount crossings fold identically), so the
	// signature comes from the cached parent chain in O(1) instead of
	// re-scanning the path. That is only sound while no path
	// aliases exist (bind mounts / cloned namespaces give dentries
	// multiple canonical paths; the §4.3 most-recent-wins re-signing
	// then requires hashing the request's own view).
	var st sig.State
	if hasDotComponents(path) || c.k.AliasingEpoch() != 0 {
		if !c.lexicalHash(t, ns, dl, pcc, start, path, token, &st) {
			return
		}
	} else if !c.pathState(lexical, &st, false) {
		return
	}

	c.publish(dl, lexical, &st, token)
	c.memoize(pcc, lexical.D, token)

	if res.D != lexical.D {
		// A symlink (or alias chain) was followed: cache the redirect,
		// pinned to the target's version, and memoize the target's
		// prefix check too (§4.2: "The PCC is separately checked for the
		// target dentry").
		if lexical.D.IsSymlink() {
			if seq := dentrySeq(res.D); c.tokenValid(token) { // as in memoize
				fd := fast(lexical.D)
				fd.TargetSeq.Store(seq)
				fd.Target.Store(res.D.SelfRef().Pack())
			}
		}
		// Make sure the result's own canonical state exists so its
		// children can be hashed (e.g. a later lookup under a resolved
		// directory symlink target).
		c.pathState(res, &st, true) // st is spent: lexical is published
		c.memoize(pcc, res.D, token)
	}
}

// hasDotComponents reports whether path contains a "." or ".." component.
func hasDotComponents(path string) bool {
	for i := 0; i < len(path); i++ {
		if path[i] != '.' {
			continue
		}
		// A dot starts a component iff at the path start or after '/'.
		if i != 0 && path[i-1] != '/' {
			continue
		}
		j := i + 1
		if j < len(path) && path[j] == '.' {
			j++
		}
		if j == len(path) || path[j] == '/' {
			return true
		}
	}
	return false
}

// lexicalHash canonicalizes path lexically from start's state into *dst,
// the final signature state. Along the way it opportunistically publishes
// the directories ".." pops out of (they were just verified by the slow
// walk, and the Linux-mode fastpath will need them, §4.2).
func (c *Core) lexicalHash(t *vfs.Task, ns *vfs.Namespace, dl *dlht, pcc *PCC, start vfs.PathRef, path string, token uint64, dst *sig.State) bool {
	var cur pathCursor
	defer cur.flush(c)
	if !cur.init(c, start) {
		return false
	}
	// Beside the hashing cursor runs a best-effort dentry cursor tracking
	// what the lexical path denotes, with the dentry each push left behind
	// stacked for ".." to return to. The stack starts in a local array, so
	// population allocates nothing up to cursorInline components, and
	// append spills it to the heap past that.
	at := start
	var inline [cursorInline]vfs.PathRef
	below := inline[:0]

	for rem := path; ; {
		var comp string
		comp, rem = vfs.NextComponent(rem)
		if comp == "" {
			break
		}
		if len(comp) > 255 {
			return false
		}
		switch comp {
		case ".":
			continue
		case "..":
			// Publish the directory being exited so the fastpath's
			// per-dot-dot check can hit (cursor permitting).
			if d := at.D; d != nil && !d.IsDead() && d.Inode() != nil &&
				d.IsDir() && cur.depth() > 0 {
				c.publish(dl, at, &cur.st, token)
				c.memoize(pcc, d, token)
			}
			if !cur.pop(c, t) {
				return false
			}
			if n := len(below); n > 0 {
				at, below = below[n-1], below[:n-1]
			} else {
				at = cur.base
			}
		default:
			if !cur.push(comp) {
				return false
			}
			below = append(below, at)
			at = c.advanceCursor(ns, at, comp)
		}
	}
	*dst = cur.st
	return true
}

// advanceCursor moves the best-effort lexical dentry cursor one component,
// crossing mounts like the walk does. A nil-dentry cursor stays nil.
func (c *Core) advanceCursor(ns *vfs.Namespace, cur vfs.PathRef, comp string) vfs.PathRef {
	if cur.D == nil {
		return vfs.PathRef{}
	}
	d := cur.D.Child(comp)
	if d == nil || d.IsDead() {
		return vfs.PathRef{}
	}
	ref := vfs.PathRef{Mnt: cur.Mnt, D: d}
	for ref.D.Flags()&vfs.DMounted != 0 && ref.Mnt != nil {
		m := ns.MountAt(ref.Mnt, ref.D)
		if m == nil {
			break
		}
		ref = vfs.PathRef{Mnt: m, D: m.Root()}
	}
	return ref
}

// EndSlowNegative implements vfs.Hooks: publish the negative dentry that
// anchored an ENOENT, and — with DeepNegatives — grow a chain of deep
// negative dentries for the missing components (§5.2).
func (c *Core) EndSlowNegative(token uint64, t *vfs.Task, start vfs.PathRef, path string, f *vfs.WalkFailure) {
	if !c.tokenValid(token) {
		c.stats.staleTokens.Add(1)
		return
	}
	if f.Anchor.D == nil || f.Anchor.D.IsDead() {
		return
	}
	if !c.admitPopulate(f.Anchor.D) {
		return
	}
	dl := t.Namespace().DLHT()
	pcc := c.pccFor(t.Cred())
	if !c.startTrusted(t, start, pcc, token) {
		return
	}

	var st sig.State
	if !c.pathState(f.Anchor, &st, true) {
		return
	}
	if f.Anchor.D.IsNegative() {
		c.publish(dl, f.Anchor, &st, token)
		c.memoize(pcc, f.Anchor.D, token)
	}
	if !c.cfg.DeepNegatives || len(f.Missing) == 0 {
		return
	}
	notDir := f.Errno == fsapi.ENOTDIR
	cur := f.Anchor.D
	for _, name := range f.Missing {
		if !st.Fits(len(name)+1) || len(name) > 255 {
			return
		}
		child := c.k.AddSpecialNegative(cur, name, notDir)
		if child == nil {
			return
		}
		st.AppendComponent(name)
		c.stats.hashedBytes.Add(int64(len(name) + 1))
		c.publish(dl, vfs.PathRef{Mnt: f.Anchor.Mnt, D: child}, &st, token)
		c.memoize(pcc, child, token)
		c.stats.deepNegCreated.Add(1)
		cur = child
	}
}

// AliasStep implements vfs.Hooks: create (or refresh) the §4.2 alias
// dentry for one post-symlink component and publish it in the DLHT so the
// whole-path fastpath can hit paths that traverse symlinks.
func (c *Core) AliasStep(t *vfs.Task, aliasParent vfs.PathRef, name string, real vfs.PathRef) *vfs.Dentry {
	if !c.cfg.SymlinkAliases {
		return nil
	}
	if aliasParent.D == nil || real.D == nil || real.D.IsDead() {
		return nil
	}
	var st sig.State
	if !c.pathState(aliasParent, &st, true) || !st.Fits(len(name)+1) || len(name) > 255 {
		return nil
	}
	alias := c.k.AddAlias(aliasParent.D, name, real.D)
	if alias == nil {
		return nil
	}
	if alias.Flags()&vfs.DAlias == 0 {
		// A real dentry already occupies the name under this parent
		// (possible for odd shapes); don't alias.
		return nil
	}
	fast(alias).TargetSeq.Store(dentrySeq(real.D))
	st.AppendComponent(name)
	c.stats.hashedBytes.Add(int64(len(name) + 1))
	// AliasStep runs mid-walk without the walk's epoch token; a fresh one
	// still lets publish refuse inserts that race a mutation.
	c.publish(t.Namespace().DLHT(), vfs.PathRef{Mnt: aliasParent.Mnt, D: alias}, &st, c.epoch.Load())
	// Deliberately no PCC insert here: the alias's fastpath hit checks
	// the target's PCC entry, which EndSlowLookup inserts under the
	// directory-reference guard (§3.2) — inserting mid-walk could launder
	// a cwd-relative authorization into an absolute one.
	c.stats.aliasCreated.Add(1)
	return alias
}

// startTrusted implements §3.2's directory-reference rule for population:
// results of a walk started at a directory reference (cwd, dirfd) may only
// be cached if that directory is itself still reachable by an absolute
// prefix check — otherwise the walk's success rests on the held reference
// and must not leak into the credential-wide caches. The task root is
// always trusted. When the memoized check has been evicted, the prefix is
// re-verified live (an O(depth) chain of search-permission checks — a
// prefix check by definition) and re-memoized, so population never starves
// under PCC capacity pressure.
func (c *Core) startTrusted(t *vfs.Task, start vfs.PathRef, pcc *PCC, token uint64) bool {
	root := t.Root()
	if start.D == root.D && start.Mnt == root.Mnt {
		return true
	}
	// A batch shootdown covering start leaves its seq (and so its PCC
	// entry) intact until lazily discarded; discard it now rather than
	// trust a pre-mutation prefix check.
	_ = c.fresh(start.D)
	seq := dentrySeq(start.D) // read before the live check, as in memoize
	if pcc.Lookup(start.D.ID(), seq) {
		return true
	}
	if !c.verifyPrefix(t, start) {
		return false
	}
	if c.tokenValid(token) {
		pcc.Insert(start.D.ID(), seq)
	}
	return true
}

// memoize records in pcc that the walk holding token passed the prefix
// check to d. The order is the point: d's version is read first and the
// token re-validated after, because the walk's own check at the top of
// population is long past by now. A shootdown bumps the epoch before any
// seq, so an entry that gets past the second check carries a version the
// shootdown has yet to bump, or belongs to a dentry whose validGen
// predates the mark fresh() will find; a walk that stalled here across a
// whole permission change inserts nothing, and memoize reports that.
func (c *Core) memoize(pcc *PCC, d *vfs.Dentry, token uint64) bool {
	seq := dentrySeq(d)
	if !c.tokenValid(token) {
		return false
	}
	pcc.Insert(d.ID(), seq)
	return true
}

// verifyPrefix checks search permission on every ancestor of ref up to the
// task root (climbing mounts), i.e. performs an absolute prefix check
// against current metadata. Every ancestor must be a live directory: a
// negative or non-directory one (deep negatives, ENOTDIR chains) fails the
// check and leaves the answer to the slow walk.
func (c *Core) verifyPrefix(t *vfs.Task, ref vfs.PathRef) bool {
	cred := t.Cred()
	root := t.Root()
	for depth := 0; depth < 512; depth++ {
		if ref.D == root.D && ref.Mnt == root.Mnt {
			return true
		}
		up := parentRef(t, ref)
		if up == ref {
			return true // reached a detached or namespace root
		}
		ino := up.D.Inode()
		if ino == nil || up.D.IsDead() || !up.D.IsDir() {
			return false
		}
		if c.k.CheckExec(cred, up.Mnt, ino) != nil {
			return false
		}
		ref = up
	}
	return false
}
