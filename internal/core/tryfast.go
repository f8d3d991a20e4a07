package core

import (
	"strings"
	"time"

	"dircache/internal/fsapi"
	"dircache/internal/sig"
	"dircache/internal/slab"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// parentRef steps one directory up from ref with mount climbing and the
// task-root (chroot) barrier, mirroring the slow walk's dot-dot rule.
func parentRef(t *vfs.Task, ref vfs.PathRef) vfs.PathRef {
	root := t.Root()
	for {
		if ref.D == root.D && ref.Mnt == root.Mnt {
			return ref
		}
		if ref.D != ref.Mnt.Root() {
			if p := ref.D.Parent(); p != nil {
				return vfs.PathRef{Mnt: ref.Mnt, D: p}
			}
			return ref
		}
		if ref.Mnt.ParentMount() == nil {
			return ref
		}
		ref = vfs.PathRef{Mnt: ref.Mnt.ParentMount(), D: ref.Mnt.Mountpoint()}
	}
}

// fastScan is the per-call scratch of one TryFast: the path cursor, the
// hand-off a DLHT miss leaves for the slow walk and, when PhaseTrace is
// on, the clock that splits the call into the Fig-3 phases. It lives in
// TryFast's frame and is passed down by pointer, so the one flush and the
// one phase record happen in one place whatever exit tryFast takes.
type fastScan struct {
	cur     pathCursor
	rs      vfs.Resume
	tracing bool
	start   time.Time     // TryFast's entry
	done    time.Duration // time since start already given to a phase
	ph      vfs.PhaseTimes
}

// lap closes the phase that has run since the previous lap into *d.
func (fs *fastScan) lap(d *time.Duration) {
	if fs.tracing {
		fs.lapTraced(d)
	}
}

// lapTraced costs one monotonic clock read, so that is what each phase
// carries of the clock's own time.
func (fs *fastScan) lapTraced(d *time.Duration) {
	e := time.Since(fs.start)
	*d, fs.done = e-fs.done, e
}

// TryFast implements vfs.Hooks: the §3.1 fastpath. It canonicalizes and
// hashes the whole path in one pass (resuming from the start dentry's
// stored state, and warm, from the prefix memo's delta for everything
// before the last component), performs a single DLHT probe, and
// authorizes the result with one PCC probe — constant hash-table work
// regardless of path depth.
// Any uncertainty returns handled=false, falling back to the slow walk.
// A DLHT miss on a path whose directory the table and the PCC do hold
// hands that directory over as a vfs.Resume (resumeAt): the slow walk then
// walks only the last component, not the whole path again.
//
// This entry only owns the scratch: tryFast has too many exits for an
// open-coded defer, so the hashed-byte flush and the phase record sit
// here, after it returns. Every handled walk reaches the phase sink —
// negative hits, ENOTDIR and "the start directory itself" included.
func (c *Core) TryFast(t *vfs.Task, start vfs.PathRef, path string, fl vfs.WalkFlags, tr *telemetry.WalkTrace) (vfs.PathRef, error, bool, vfs.Resume) {
	fs := fastScan{tracing: c.k.PhaseTraceOn()}
	if fs.tracing {
		fs.start = time.Now()
	}
	ref, err, handled := c.tryFast(&fs, t, start, path, fl, tr)
	fs.cur.flush(c)
	if handled && fs.tracing {
		fs.lapTraced(&fs.ph.Finalize)
		c.k.RecordPhases(fs.ph)
	}
	return ref, err, handled, fs.rs
}

// tryFast is TryFast's body; it reports its phases and hashed bytes
// through fs and leaves delivering them to its caller.
func (c *Core) tryFast(fs *fastScan, t *vfs.Task, start vfs.PathRef, path string, fl vfs.WalkFlags, tr *telemetry.WalkTrace) (vfs.PathRef, error, bool) {
	k := c.k

	tel := k.Telemetry()

	dl := t.Namespace().DLHT()
	pcc := c.pccFor(t.Cred())

	cur := &fs.cur
	if !cur.init(c, start) {
		return vfs.PathRef{}, nil, false
	}
	fs.lap(&fs.ph.Init)

	trailing, ok := c.scan(t, dl, pcc, cur, path)
	if !ok {
		return vfs.PathRef{}, nil, false
	}
	mustDir := fl&vfs.WalkDirectory != 0 || trailing
	fs.lap(&fs.ph.ScanHash)

	if cur.depth() == 0 {
		// The path resolved to the start directory itself ("." etc.):
		// the task already holds a reference to it.
		if cur.base.D.IsDead() || cur.base.D.Inode() == nil {
			return vfs.PathRef{}, nil, false
		}
		if mustDir && !cur.base.D.IsDir() {
			return vfs.PathRef{}, fsapi.ENOTDIR, true
		}
		k.Count(vfs.NFastHits, 1)
		return cur.base, nil, true
	}

	// Read before the probe, for recheckPrefix: a token still valid after
	// its climb vouches for everything from this lookup on.
	token := c.epoch.Load()
	d := probe(dl, &cur.st)
	fs.lap(&fs.ph.HashLookup)
	// Range-shootdown freshness: one generation compare on the hot path;
	// a stale entry (covered by a range shootdown) is lazily discarded and
	// the walk falls back. The rule every shootdown rests on (DESIGN §5d):
	// fresh(x) before any PCC consult for x — here for the dentry the
	// table returned, below for each dentry a redirect lands on.
	if d == nil || !c.fresh(d) || !c.keyed(d, &cur.st) {
		c.k.Count(vfs.NDLHTMisses, 1)
		tr.Event(telemetry.EvDLHTMiss, path)
		fs.rs = c.resumeAt(dl, pcc, cur, path, token)
		return vfs.PathRef{}, nil, false
	}
	tr.Event(telemetry.EvDLHTHit, path)

	// Alias dentries redirect to the real dentry; the redirect is pinned
	// to the target's version (a structural change to the target bumps
	// its seq and stales the alias). The alias's own prefix check covers
	// the requested path's parents; the target is checked separately
	// below (§4.2).
	if d.Flags()&vfs.DAlias != 0 {
		real := c.aliasTarget(d)
		if real == nil {
			tr.Event(telemetry.EvFastAbort, "stale alias")
			return vfs.PathRef{}, nil, false
		}
		if !pcc.Lookup(d.ID(), dentrySeq(d)) {
			c.k.Count(vfs.NPCCMisses, 1)
			tr.Event(telemetry.EvPCCMiss, "alias")
			return vfs.PathRef{}, nil, false
		}
		tr.Event(telemetry.EvAlias, "")
		d = real
	}

	// Negative dentries answer ENOENT/ENOTDIR — but only for credentials
	// whose prefix check to them is memoized (nonexistence is information
	// too).
	if d.IsNegative() {
		if !pcc.Lookup(d.ID(), dentrySeq(d)) && !c.recheckPrefix(t, pcc, d, token, tr) {
			c.k.Count(vfs.NPCCMisses, 1)
			tr.Event(telemetry.EvPCCMiss, "negative")
			return vfs.PathRef{}, nil, false
		}
		fs.lap(&fs.ph.PermCheck)
		tr.Event(telemetry.EvPCCHit, "negative")
		tr.Event(telemetry.EvNegative, path)
		errno := fsapi.ENOENT
		if d.Flags()&vfs.DNotDir != 0 {
			errno = fsapi.ENOTDIR
		}
		d.MarkReferenced()
		k.Count(vfs.NFastHits, 1)
		k.Count(vfs.NFastNeg, 1)
		return vfs.PathRef{}, errno, true
	}

	// Unhydrated dentries (readdir stubs) need an FS call; that belongs
	// to the slow path.
	if d.Flags()&vfs.DUnhydrated != 0 {
		tr.Event(telemetry.EvFastAbort, "unhydrated")
		return vfs.PathRef{}, nil, false
	}

	// Final symlink: follow through the cached resolution (§4.2), unless
	// the caller asked for the link itself.
	if d.IsSymlink() && (fl&vfs.WalkNoFollow == 0 || mustDir) {
		for depth := 0; ; depth++ {
			if depth > 8 {
				return vfs.PathRef{}, nil, false
			}
			fd := fast(d)
			// The link's own prefix check (covering the requested
			// path's parents) must be memoized; the target is checked
			// separately after the loop (§4.2).
			if !pcc.Lookup(d.ID(), fd.Seq.Load()) {
				c.k.Count(vfs.NPCCMisses, 1)
				return vfs.PathRef{}, nil, false
			}
			tgt := c.k.DentryFromRef(slab.Unpack(fd.Target.Load()))
			if tgt == nil || tgt.IsDead() || fd.TargetSeq.Load() != dentrySeq(tgt) {
				return vfs.PathRef{}, nil, false
			}
			if !c.fresh(tgt) {
				return vfs.PathRef{}, nil, false
			}
			d = tgt
			if !d.IsSymlink() {
				break
			}
		}
		if d.IsNegative() || d.Flags()&vfs.DUnhydrated != 0 {
			return vfs.PathRef{}, nil, false
		}
	}

	fd := fast(d)
	seq := fd.Seq.Load()
	var pccStart int64
	if fl&vfs.WalkTimed != 0 {
		pccStart = telemetry.Now()
	}
	hit := pcc.Lookup(d.ID(), seq)
	if pccStart != 0 {
		tel.Record(telemetry.HistPCC, telemetry.Since(pccStart))
	}
	if !hit && !c.cfg.ForcePCCMiss {
		hit = c.recheckPrefix(t, pcc, d, token, tr)
	}
	fs.lap(&fs.ph.PermCheck)
	if !hit || c.cfg.ForcePCCMiss {
		c.k.Count(vfs.NPCCMisses, 1)
		tr.Event(telemetry.EvPCCMiss, "")
		return vfs.PathRef{}, nil, false
	}
	tr.Event(telemetry.EvPCCHit, "")
	mnt := fd.MntP.Load()
	if mnt == nil || d.IsDead() || d.Super().Caps().Revalidate {
		tr.Event(telemetry.EvFastAbort, "unusable dentry")
		return vfs.PathRef{}, nil, false
	}
	// A fastpath hit is a use: without this the dentries hot enough to be
	// answered here, which the slow walk never sees again, would be the
	// coldest ones the shrinker finds.
	d.MarkReferenced()
	k.Count(vfs.NFastHits, 1)
	if mustDir && !d.IsDir() {
		return vfs.PathRef{}, fsapi.ENOTDIR, true
	}
	return vfs.PathRef{Mnt: mnt, D: d}, nil, true
}

// resumeAt is a DLHT miss's one extra probe (DESIGN §5c): the path's
// directory, when the DLHT and the PCC vouch for it under the checks a hit
// makes, is handed to the slow walk, which then resolves only the last
// component there. Only an ordinary last name qualifies (the one component
// the cursor can un-hash), only below the start, and only in the era whose
// walks validate the rename seq read here, before the probe. token is the
// one read before the full path's probe.
//
// Out of line: a hit never gets here.
//
//go:noinline
func (c *Core) resumeAt(dl *dlht, pcc *PCC, cur *pathCursor, path string, token uint64) vfs.Resume {
	last := path[strings.LastIndexByte(path, '/')+1:]
	if cur.depth() < 2 || last == "" || last == "." || last == ".." || len(last) > 255 {
		return vfs.Resume{}
	}
	cur.st.UnappendComponent(last)
	seq, ok := c.k.ResumeSeq()
	if !ok {
		return vfs.Resume{}
	}
	// A negative or symlink dentry is no directory; an unhydrated one's
	// type is a readdir hint, and an alias's is its target's.
	d := probe(dl, &cur.st)
	if d == nil || !c.fresh(d) || !c.keyed(d, &cur.st) ||
		d.Flags()&(vfs.DAlias|vfs.DUnhydrated) != 0 || !d.IsDir() {
		return vfs.Resume{}
	}
	fd := fast(d)
	if !pcc.Lookup(d.ID(), fd.Seq.Load()) {
		return vfs.Resume{}
	}
	mnt := fd.MntP.Load()
	if mnt == nil || d.IsDead() || d.Super().Caps().Revalidate {
		return vfs.Resume{}
	}
	d.MarkReferenced()
	return vfs.Resume{Parent: vfs.PathRef{Mnt: mnt, D: d}, Seq: seq, Token: token}
}

// scan canonicalizes and hashes path into cur, which init has pointed at
// the walk start. When the path's last component is an ordinary name, its
// directory prefix's hash comes from the prefix memo if the memo has it,
// and goes there once hashed if the prefix holds no "." or ".."; only the
// last component is then hashed. Any other path is hashed whole. trailing
// reports a '/' after the last component; false means the slow walk must
// answer.
func (c *Core) scan(t *vfs.Task, dl *dlht, pcc *PCC, cur *pathCursor, path string) (trailing, ok bool) {
	slash := strings.LastIndexByte(path, '/')
	last := path[slash+1:]
	memo := slash > 0 && last != "" && last != "." && last != ".." && len(last) <= 255
	var from sig.State
	if memo {
		prefix := path[:slash+1]
		if e := c.memo.lookup(cur.st.Len(), prefix); e != nil {
			cur.resume(e)
			c.k.Count(vfs.NPrefixMemoHits, 1)
			return false, cur.last(last)
		}
		from, path = cur.st, prefix
	}
	dots := false
	for rem := path; ; {
		var comp string
		comp, rem = vfs.NextComponent(rem)
		if comp == "" {
			break
		}
		if len(comp) > 255 {
			return false, false
		}
		trailing = len(rem) > 0
		switch comp {
		case ".":
			// Linux evaluates search permission on the directory for a
			// "." component too; a lexical skip must preserve that (it
			// is observable when "." is the path's last effective step).
			if !c.checkPrefixDir(t, dl, pcc, cur) {
				return false, false
			}
			dots = true
		case "..":
			if !c.cfg.LexicalDotDot {
				// Linux semantics (§4.2): verify search permission on
				// the directory being exited with an extra fastpath
				// lookup.
				c.k.Count(vfs.NDotDotChecks, 1)
				if !c.checkPrefixDir(t, dl, pcc, cur) {
					return false, false
				}
			}
			if !cur.pop(c, t) {
				return false, false
			}
			dots = true
		default:
			if !cur.push(comp) {
				return false, false
			}
		}
	}
	if !memo {
		return trailing, true
	}
	if !dots && cur.depth() > 0 {
		c.memo.publish(path, cur.st.Since(&from), cur.depth())
	}
	return false, cur.push(last)
}

// keyed reports whether d is published under st's key: the probe filtered
// on lane 0 and the table, and fresh vouches for d's current entry, not the
// one the probe found — a walker descheduled between the two can find d
// under a key that another walk has since discarded (a rename moved d) and
// re-published under d's new path, stamping ValidGen as it did. The stored
// state is the entry's key: every publish stores it before linking the
// entry, every unpublish clears it with the entry, and nothing else
// stores one but the state of d's path as the tree spells it, so d holds
// st only while st's path names d.
func (c *Core) keyed(d *vfs.Dentry, st *sig.State) bool {
	return fast(d).State.Holds(st)
}

// checkPrefixDir resolves the cursor's current lexical prefix (the base
// directory when nothing is pushed, otherwise via DLHT+PCC) and verifies
// search permission on it — the extra per-dot fastpath lookup of §4.2.
// Returns false to force the slow walk (which produces the authoritative
// result).
func (c *Core) checkPrefixDir(t *vfs.Task, dl *dlht, pcc *PCC, cur *pathCursor) bool {
	var d *vfs.Dentry
	if cur.depth() == 0 {
		d = cur.base.D // cwd/root chain: referenced directories
	} else {
		token := c.epoch.Load() // before the probe, as in tryFast
		d = probe(dl, &cur.st)
		if d == nil {
			c.k.Count(vfs.NDLHTMisses, 1)
			return false
		}
		if !c.fresh(d) || !c.keyed(d, &cur.st) {
			c.k.Count(vfs.NDLHTMisses, 1)
			return false
		}
		if d.Flags()&vfs.DAlias != 0 {
			if d = c.aliasTarget(d); d == nil {
				return false
			}
		}
		if !pcc.Lookup(d.ID(), dentrySeq(d)) && !c.recheckPrefix(t, pcc, d, token, nil) {
			c.k.Count(vfs.NPCCMisses, 1)
			return false
		}
	}
	// "." and ".." are looked up *in* the prefix: a symlink there is
	// followed and a file is ENOTDIR, neither of which a lexical skip does.
	ino := d.Inode()
	if ino == nil || !d.IsDir() {
		return false
	}
	return c.k.CheckExec(t.Cred(), mntOf(d, cur.base.Mnt), ino) == nil
}

// recheckPrefix answers a PCC miss on a table hit. The table says the path
// names d and fresh has vouched for that, so all that is missing is this
// credential's prefix check — after a permission change above d, or on the
// credential's first visit, there is nothing else to re-learn. The check
// is verifyPrefix, the one startTrusted already trusts: search permission
// on every ancestor of d's canonical path, which is what the slow walk's
// mayLookup tests component by component. token is the invalidation epoch
// read before the table probe, and memoize re-validates it after the climb:
// a mutation that began anywhere between the probe and that re-check —
// a rename that moved d off the probed path as much as a chmod that lands
// behind the climb — leaves the token stale, nothing is inserted and
// nothing is answered. False sends the walk to the slow path, which also
// owns every refusal: EACCES is never answered from here. Alias and
// symlink dentries always go there (their entries vouch for the link's
// path and pin a target), as does every dentry while bind mounts or cloned
// namespaces exist (its parent chain is then one canonical path of
// several, §4.3).
//
// Out of line: it is the miss branch of a frame sized for hits.
//
//go:noinline
func (c *Core) recheckPrefix(t *vfs.Task, pcc *PCC, d *vfs.Dentry, token uint64, tr *telemetry.WalkTrace) bool {
	if d.Flags()&vfs.DAlias != 0 || d.IsSymlink() || c.k.AliasingEpoch() != 0 {
		return false
	}
	mnt := fast(d).MntP.Load()
	if mnt == nil || !c.verifyPrefix(t, vfs.PathRef{Mnt: mnt, D: d}) || !c.memoize(pcc, d, token) {
		return false
	}
	c.k.Count(vfs.NPrefixRechecks, 1)
	tr.Event(telemetry.EvPCCMiss, "re-checked in place")
	return true
}

// aliasTarget follows an alias dentry (already fresh) to the real dentry
// it redirects to, or returns nil when the redirect cannot be trusted: the
// target is gone, has changed since the alias pinned its version, or sits
// under a range shootdown — in which case fresh discards its state, so the
// PCC consult the caller makes next cannot be answered by a revoked entry.
func (c *Core) aliasTarget(alias *vfs.Dentry) *vfs.Dentry {
	real := alias.Target()
	if real == nil || real.IsDead() ||
		fast(alias).TargetSeq.Load() != dentrySeq(real) || !c.fresh(real) {
		return nil
	}
	return real
}

// mntOf returns the dentry's recorded mount, falling back to hint.
func mntOf(d *vfs.Dentry, hint *vfs.Mount) *vfs.Mount {
	if m := fast(d).MntP.Load(); m != nil {
		return m
	}
	return hint
}
