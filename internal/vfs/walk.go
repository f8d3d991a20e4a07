package vfs

import (
	"errors"
	"strings"
	"time"

	"dircache/internal/fsapi"
	"dircache/internal/telemetry"
)

// MaxPath bounds path lengths, matching Linux's PATH_MAX.
const MaxPath = 4096

// maxSymlinks bounds symlink resolution depth (Linux's MAXSYMLINKS).
const maxSymlinks = 40

// WalkFlags modify path resolution.
type WalkFlags uint32

const (
	// WalkNoFollow does not follow a symlink in the final component
	// (lstat, O_NOFOLLOW).
	WalkNoFollow WalkFlags = 1 << iota
	// WalkDirectory requires the final component to be a directory.
	WalkDirectory
	// WalkNoFast skips the fastpath hook (used internally when the
	// caller needs authoritative slow-walk side effects).
	WalkNoFast
	// WalkTimed marks a walk whose latency telemetry records (set by the
	// walk itself, see walkTimedEvery): the hooks time their own stages
	// on these walks and on no others.
	WalkTimed
)

// walkTimedEvery is the share of walks that are timed with telemetry on:
// one in this many per statistics stripe (picked on the value the walk's
// count returns), plus every traced walk. Timing a walk takes two clock
// reads, 30–40 ns each where the clock is a vDSO call — a fifth of a warm
// walk between them (DESIGN §6). The latency distribution of one walk in
// eight is the distribution; the counters, not the histograms, count
// walks.
const walkTimedEvery = 8

// WalkFailure is the structured ENOENT/ENOTDIR result of a slow walk. It
// tells the hooks where the resolution stopped so deep negative dentries
// (§5.2) can be installed.
type WalkFailure struct {
	Errno fsapi.Errno
	// Anchor is the deepest cached dentry on the path: the negative
	// dentry for the failing component, the directory whose completeness
	// answered the miss, or — for ENOTDIR — the non-directory dentry the
	// path tried to descend through.
	Anchor PathRef
	// Missing lists the path components below Anchor that are not
	// cached, in order.
	Missing []string
}

// Error implements error.
func (f *WalkFailure) Error() string { return f.Errno.Error() }

// Unwrap lets errors.Is match the underlying Errno.
func (f *WalkFailure) Unwrap() error { return f.Errno }

// Resume is a fastpath miss's hand-off to the slow walk (Hooks.TryFast,
// DESIGN §5c): the directory the path's last component is looked up in,
// found and authorized by the hooks, so the slow walk resolves that one
// component — the path after its last '/', an ordinary name — instead of
// the whole path. A nil Parent.D means no hand-off. It is a value the walk
// carries on its stack, never Task state: two goroutines may walk one Task
// at once (see segBusy). It is four words, so TryFast's results still fit
// the registers a call returns in.
type Resume struct {
	Parent PathRef // the last component's directory
	Seq    uint64  // the rename seq, read before the hooks looked Parent up
	Token  uint64  // the hooks' invalidation token, read before their first probe
}

// errSeqRetry aborts an optimistic walk that observed torn state.
var errSeqRetry = errors.New("vfs: optimistic walk retry")

// PhaseTimes decomposes one lookup into the cost centers charted in
// Figure 3 of the paper.
type PhaseTimes struct {
	Init       time.Duration // start-ref resolution, setup
	ScanHash   time.Duration // component scanning and key hashing
	HashLookup time.Duration // hash table probes
	PermCheck  time.Duration // per-directory permission checks
	Finalize   time.Duration // final dentry validation
}

// Add accumulates other into p.
func (p *PhaseTimes) Add(o PhaseTimes) {
	p.Init += o.Init
	p.ScanHash += o.ScanHash
	p.HashLookup += o.HashLookup
	p.PermCheck += o.PermCheck
	p.Finalize += o.Finalize
}

// Total sums all phases.
func (p *PhaseTimes) Total() time.Duration {
	return p.Init + p.ScanHash + p.HashLookup + p.PermCheck + p.Finalize
}

// SetPhaseSink installs a callback receiving each walk's PhaseTimes
// (only honored when Config.PhaseTrace is set). Not synchronized with
// in-flight walks; install before measuring.
func (k *Kernel) SetPhaseSink(fn func(PhaseTimes)) { k.phases = fn }

// PhaseTraceOn reports whether phase tracing is active (config flag set
// and a sink installed) — hooks use it to instrument the fastpath.
func (k *Kernel) PhaseTraceOn() bool { return k.cfg.PhaseTrace && k.phases != nil }

// RecordPhases delivers one lookup's phase decomposition to the sink.
func (k *Kernel) RecordPhases(p PhaseTimes) {
	if k.phases != nil {
		k.phases(p)
	}
}

// NextComponent splits the leading path component from s, skipping any
// leading slashes. comp == "" means s held nothing but slashes.
func NextComponent(s string) (comp, rest string) {
	i := 0
	for i < len(s) && s[i] == '/' {
		i++
	}
	j := i
	for j < len(s) && s[j] != '/' {
		j++
	}
	return s[i:j], s[j:]
}

// hasMoreComponents reports whether s contains any non-slash bytes.
func hasMoreComponents(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '/' {
			return true
		}
	}
	return false
}

// Walk resolves path to a PathRef using the fastpath when installed,
// falling back to the component-at-a-time slow walk. Relative paths start
// at the task's working directory.
func (t *Task) Walk(path string, fl WalkFlags) (PathRef, error) {
	return t.WalkFrom(PathRef{}, path, fl)
}

// WalkFrom resolves path starting at `at` for relative paths (the *at()
// family); a zero `at` means the working directory. Absolute paths always
// start at the task root.
func (t *Task) WalkFrom(at PathRef, path string, fl WalkFlags) (PathRef, error) {
	k := t.k
	// Epoch section for the whole walk: every dentry observed on the
	// way, through a hash chain or otherwise, is protected from slab
	// recycling until the walk exits (slab reclamation grace period).
	// Entered and left without defer: a deferred closure here measured
	// ~10% on the benchmark's warm_stat.
	ep := k.gate.Enter()
	evictions := k.lru.Epoch()
	res, err := t.walkInSection(at, path, fl)
	k.leaveSection(ep, evictions)
	return res, err
}

// walkInSection is WalkFrom's body, run inside its epoch section.
func (t *Task) walkInSection(at PathRef, path string, fl WalkFlags) (PathRef, error) {
	k := t.k
	// One Add counts the walk and, with telemetry on, picks the timing
	// sample below: a second read of the stripe could land on another
	// cell when it runs at another stack depth.
	n := k.stats.cell()[NLookups].Add(1)
	if path == "" {
		return PathRef{}, fsapi.ENOENT
	}
	if len(path) >= MaxPath {
		return PathRef{}, fsapi.ENAMETOOLONG
	}
	var start PathRef
	if path[0] == '/' {
		start = t.Root()
	} else if at.D != nil {
		start = at
	} else {
		start = t.Cwd()
	}

	// Telemetry: when detached this is the entire cost — one atomic load
	// and one branch; the rest of the walk takes the nil-pointer paths.
	tel := k.tel.Load()
	var walkStart int64 // nonzero on a timed walk
	var tr *telemetry.WalkTrace
	if tel != nil {
		if armed := t.takeArmedTrace(); armed != nil {
			// A wire span armed by the 9P server: annotate it in place so
			// the walk's stage events stitch into the end-to-end trace.
			// Its owner finishes it; FinishWalk only appends a summary.
			tr = armed
		} else if tel.Sampled() {
			tr = tel.StartWalk(path)
		}
		if tr != nil || n%walkTimedEvery == 1 {
			walkStart = telemetry.Now()
			fl |= WalkTimed
		}
	}

	var rs Resume
	if k.hooks != nil && fl&WalkNoFast == 0 {
		res, err, handled, resume := k.hooks.TryFast(t, start, path, fl, tr)
		if handled {
			if tel != nil {
				walkDone(tel, tr, walkStart, telemetry.HistFastpath, err)
			}
			return res, err
		}
		rs = resume
	}

	k.Count(NSlowWalks, 1)
	res, lexical, err, resumed := k.walkResumed(t, rs, path, fl, tr)
	token := rs.Token
	if !resumed {
		tr.Event(telemetry.EvSlowWalk, "")
		if k.hooks != nil {
			token = k.hooks.BeginSlow()
		}
		res, lexical, err = k.walkSlow(t, start, path, fl, tr)
	}
	if k.hooks != nil {
		if err == nil {
			k.hooks.EndSlowLookup(token, t, start, path, lexical, res)
		} else {
			var f *WalkFailure
			if errors.As(err, &f) {
				k.hooks.EndSlowNegative(token, t, start, path, f)
			}
		}
	}
	if tel != nil {
		walkDone(tel, tr, walkStart, telemetry.HistSlowpath, err)
	}
	return res, err
}

// walkResumed runs a Resume: one optimistic walk of path's last component
// from rs.Parent, validated against the rename seq the hooks read before
// they found Parent. A rename since then may have moved Parent off the
// path, and torn state (errSeqRetry) proves nothing either; both return
// ok=false, as a zero Resume does, and the caller walks the whole path
// from its start.
func (k *Kernel) walkResumed(t *Task, rs Resume, path string, fl WalkFlags, tr *telemetry.WalkTrace) (res, lexical PathRef, err error, ok bool) {
	if rs.Parent.D == nil {
		return PathRef{}, PathRef{}, nil, false
	}
	tr.Event(telemetry.EvSlowWalk, "resumed")
	res, lexical, err = k.walkOnce(t, rs.Parent, path[strings.LastIndexByte(path, '/')+1:], fl, tr)
	if err == errSeqRetry || !k.readSeqValid(rs.Seq) {
		k.Count(NRetryWalks, 1)
		tr.Event(telemetry.EvSeqRetry, "resume")
		return PathRef{}, PathRef{}, nil, false
	}
	k.Count(NResumedWalks, 1)
	return res, lexical, err, true
}

// walkDone is the telemetry tail of a walk: a timed walk (start nonzero —
// every traced one is) goes into the histogram of the path it took and
// the walk histogram, and its trace, if any, is finished.
func walkDone(tel *telemetry.Telemetry, tr *telemetry.WalkTrace, start int64, took telemetry.HistID, err error) {
	if start == 0 {
		return
	}
	d := telemetry.Since(start)
	var trID uint64
	if tr != nil {
		trID = tr.ID
	}
	tel.RecordEx(took, d, trID)
	tel.RecordEx(telemetry.HistWalk, d, trID)
	tel.FinishWalk(tr, took == telemetry.HistFastpath, err, d)
}

// walkSlow dispatches on the synchronization era.
func (k *Kernel) walkSlow(t *Task, start PathRef, path string, fl WalkFlags, tr *telemetry.WalkTrace) (PathRef, PathRef, error) {
	sc := k.stats.cell()
	switch k.cfg.SyncMode {
	case SyncBigLock:
		k.big.Lock()
		defer k.big.Unlock()
		return k.walkLocked(t, start, path, fl, tr)
	case SyncBucketLock:
		k.renameRW.RLock()
		defer k.renameRW.RUnlock()
		return k.walkLocked(t, start, path, fl, tr)
	default: // SyncRCU
		for try := 0; try < 4; try++ {
			seq, even := k.readSeqBegin()
			if !even {
				sc[NRetryWalks].Add(1)
				tr.Event(telemetry.EvSeqRetry, "writer active")
				continue
			}
			res, lex, err := k.walkOnce(t, start, path, fl, tr)
			if err == errSeqRetry {
				sc[NRetryWalks].Add(1)
				tr.Event(telemetry.EvSeqRetry, "torn read")
				continue
			}
			if !k.readSeqValid(seq) {
				sc[NRetryWalks].Add(1)
				tr.Event(telemetry.EvSeqRetry, "seq changed")
				continue
			}
			return res, lex, err
		}
		// ref-walk fallback: block out structural changes and redo.
		sc[NRetryWalks].Add(1)
		tr.Event(telemetry.EvRefWalk, "")
		tr.SetAnomaly(telemetry.AnomRefWalk)
		k.renameRW.RLock()
		defer k.renameRW.RUnlock()
		return k.walkLocked(t, start, path, fl, tr)
	}
}

// walkLocked is walkOnce for a caller that holds the era's lock. The
// lock keeps renames out but not eviction, which takes neither renameRW
// nor the big lock: the walk can still step onto a dentry Shrink killed
// under it and get errSeqRetry. The hash table skips dead entries, so a
// redo resolves the name afresh; only a start that is itself gone
// cannot be retried past, and the loop stops there rather than spin.
func (k *Kernel) walkLocked(t *Task, start PathRef, path string, fl WalkFlags, tr *telemetry.WalkTrace) (PathRef, PathRef, error) {
	for {
		res, lex, err := k.walkOnce(t, start, path, fl, tr)
		if err != errSeqRetry || start.D.IsDead() || start.D.Inode() == nil {
			return res, lex, err
		}
		k.Count(NRetryWalks, 1)
		tr.Event(telemetry.EvSeqRetry, "evicted underfoot")
	}
}

// segment is one pending piece of path: the original request or a symlink
// target. aliasable marks components of the original user path (only those
// get symlink-alias dentries, §4.2).
type segment struct {
	rest      string
	aliasable bool
}

// walkOnce performs one component-at-a-time traversal — the analogue of
// Linux's link_path_walk + walk_component, including the per-directory
// permission checks that constitute the prefix check.
func (k *Kernel) walkOnce(t *Task, start PathRef, path string, fl WalkFlags, tr *telemetry.WalkTrace) (PathRef, PathRef, error) {
	sc := k.stats.cell()
	var ph PhaseTimes
	tracing := k.cfg.PhaseTrace && k.phases != nil
	var t0 time.Time
	if tracing {
		t0 = time.Now()
	}

	c := t.Cred()
	ns := t.Namespace()
	cur := start
	root := t.Root()

	// Segment stack for symlink continuations, reusing the task's scratch
	// buffer so an ordinary slow walk allocates nothing here.
	segs, scratch := t.acquireSegs()
	defer func() { t.releaseSegs(segs, scratch) }()
	segs[0] = segment{rest: path, aliasable: true}
	symDepth := 0

	var aliasCur PathRef // current tail of the alias chain being built
	var lexical PathRef  // what the path's lexical form denotes (§4.2)

	if tracing {
		ph.Init += time.Since(t0)
	}

	mustDir := fl&WalkDirectory != 0

	for len(segs) > 0 {
		seg := &segs[len(segs)-1]
		var comp string
		if tracing {
			t0 = time.Now()
		}
		comp, seg.rest = NextComponent(seg.rest)
		if tracing {
			ph.ScanHash += time.Since(t0)
		}
		if comp == "" {
			// Segment exhausted (was empty or all slashes).
			segs = segs[:len(segs)-1]
			continue
		}
		if len(comp) > 255 {
			return PathRef{}, PathRef{}, fsapi.ENAMETOOLONG
		}
		trailingSlash := len(seg.rest) > 0 && !hasMoreComponents(seg.rest)
		final := !hasMoreComponents(seg.rest) && len(segs) == 1
		if final && trailingSlash {
			// "path/" requires the result to be a directory.
			mustDir = true
		}

		// The current location must be a searchable directory.
		curIno := cur.D.Inode()
		if curIno == nil || cur.D.IsDead() {
			return PathRef{}, PathRef{}, errSeqRetry
		}
		if !curIno.Mode().IsDir() {
			return PathRef{}, PathRef{}, &WalkFailure{
				Errno:   fsapi.ENOTDIR,
				Anchor:  cur,
				Missing: remainingComponents(comp, segs),
			}
		}
		if tracing {
			t0 = time.Now()
		}
		err := k.mayLookup(c, cur.Mnt, curIno)
		if tracing {
			ph.PermCheck += time.Since(t0)
		}
		if err != nil {
			return PathRef{}, PathRef{}, err
		}

		if comp == "." {
			continue
		}
		if comp == ".." {
			tr.Event(telemetry.EvDotDot, "")
			aliasCur = PathRef{} // stop aliasing across parent references
			cur = k.followDotDot(t, ns, root, cur)
			continue
		}

		sc[NComponents].Add(1)
		tr.Event(telemetry.EvComponent, comp)

		// Hash table probe.
		if tracing {
			t0 = time.Now()
		}
		d := k.table.lookup(cur.D, comp)
		if tracing {
			ph.HashLookup += time.Since(t0)
		}

		if d != nil && d.sb.caps.Revalidate {
			// Close-to-open consistency: the cached entry must be
			// re-verified at the server (§4.3). Positive entries refresh
			// via GetNode; negatives are not trusted at all.
			if d.IsNegative() || k.revalidate(d) != nil {
				k.killDentryKeepComplete(d)
				d = nil
			}
		}
		if d != nil {
			if d.IsDead() {
				return PathRef{}, PathRef{}, errSeqRetry
			}
			sc[NCacheHits].Add(1)
			tr.Event(telemetry.EvHashHit, comp)
			d.MarkReferenced()
			if d.IsNegative() {
				sc[NNegativeHits].Add(1)
				tr.Event(telemetry.EvNegative, comp)
				errno := fsapi.ENOENT
				if d.Flags()&DNotDir != 0 {
					errno = fsapi.ENOTDIR
				}
				return PathRef{}, PathRef{}, &WalkFailure{
					Errno:   errno,
					Anchor:  PathRef{Mnt: cur.Mnt, D: d},
					Missing: remainingComponents("", segs),
				}
			}
			if d.Flags()&DUnhydrated != 0 {
				tr.Event(telemetry.EvHydrate, comp)
				if err := k.hydrate(d); err != nil {
					return PathRef{}, PathRef{}, err
				}
			}
		} else {
			// Miss: authoritative shortcut if the directory is complete.
			// A child that is in the map but not yet in the table (a
			// readdir install in flight) falls through to missLookup,
			// which resolves it from the map without a backend call.
			if k.cfg.DirCompleteness && cur.D.completeWithout(comp) {
				sc[NCompleteShort].Add(1)
				tr.Event(telemetry.EvCompleteShort, comp)
				return PathRef{}, PathRef{}, &WalkFailure{
					Errno:   fsapi.ENOENT,
					Anchor:  cur,
					Missing: remainingComponents(comp, segs),
				}
			}
			var fsStart time.Time
			if tr != nil {
				fsStart = time.Now()
			}
			var werr error
			d, werr = k.missLookup(cur, comp, tr)
			if tr != nil {
				tr.EventDur(telemetry.EvFSLookup, comp, time.Since(fsStart))
			}
			if werr != nil {
				if errno, ok := werr.(fsapi.Errno); ok && errno == fsapi.ENOENT {
					anchor := cur
					missing := remainingComponents(comp, segs)
					// If a negative dentry was installed, it anchors the
					// failure itself.
					if nd := cur.D.child(comp); nd != nil && nd.IsNegative() {
						anchor = PathRef{Mnt: cur.Mnt, D: nd}
						missing = remainingComponents("", segs)
					}
					return PathRef{}, PathRef{}, &WalkFailure{Errno: fsapi.ENOENT, Anchor: anchor, Missing: missing}
				}
				return PathRef{}, PathRef{}, werr
			}
		}

		next := PathRef{Mnt: cur.Mnt, D: d}

		// Cross mount points (possibly stacked).
		for next.D.Flags()&DMounted != 0 {
			m := ns.mountAt(next.Mnt, next.D)
			if m == nil {
				break
			}
			next = PathRef{Mnt: m, D: m.root}
		}

		// Symbolic links.
		if next.D.IsSymlink() {
			follow := !final || fl&WalkNoFollow == 0 || trailingSlash || mustDir
			if final && fl&WalkNoFollow != 0 && !trailingSlash && !mustDir {
				follow = false
			}
			if follow {
				symDepth++
				if symDepth > maxSymlinks {
					return PathRef{}, PathRef{}, fsapi.ELOOP
				}
				tr.Event(telemetry.EvSymlink, comp)
				target, err := k.readLinkBody(next.D)
				if err != nil {
					return PathRef{}, PathRef{}, err
				}
				if k.hooks != nil && seg.aliasable {
					aliasCur = PathRef{Mnt: cur.Mnt, D: next.D}
					if final && lexical.D == nil {
						// The requested path denotes the link itself;
						// the result is its target (§4.2 link-f).
						lexical = aliasCur
					}
				}
				// Push the target as a new, non-aliasable segment.
				segs = append(segs, segment{rest: target})
				if target[0] == '/' {
					cur = root
				}
				continue
			}
		}

		// Alias chaining for components after a symlink (§4.2).
		if aliasCur.D != nil && k.hooks != nil && seg.aliasable && !next.D.IsNegative() {
			alias := k.hooks.AliasStep(t, aliasCur, comp, next)
			if alias == nil {
				aliasCur = PathRef{}
			} else {
				aliasCur = PathRef{Mnt: aliasCur.Mnt, D: alias}
				if final {
					// The requested path denotes the alias chain's
					// tail (§4.2 link-d).
					lexical = aliasCur
				}
			}
		}

		cur = next
	}

	if tracing {
		t0 = time.Now()
	}
	// Final validation.
	ino := cur.D.Inode()
	if ino == nil {
		if cur.D.IsNegative() {
			return PathRef{}, PathRef{}, &WalkFailure{Errno: fsapi.ENOENT, Anchor: cur}
		}
		if cur.D.Flags()&DUnhydrated != 0 {
			if err := k.hydrate(cur.D); err != nil {
				return PathRef{}, PathRef{}, err
			}
			ino = cur.D.Inode()
		}
	}
	if mustDir && (ino == nil || !ino.Mode().IsDir()) {
		return PathRef{}, PathRef{}, fsapi.ENOTDIR
	}
	if tracing {
		ph.Finalize += time.Since(t0)
		k.phases(ph)
	}
	if lexical.D == nil {
		lexical = cur
	}
	return cur, lexical, nil
}

// remainingComponents collects first (if non-empty) plus every component
// left in the segment stack's aliasable portion — the components below the
// failure anchor.
func remainingComponents(first string, segs []segment) []string {
	var out []string
	if first != "" {
		out = append(out, first)
	}
	// Only the original (bottom, aliasable) segment names real path
	// components the user asked for; symlink-target segments are internal.
	rest := segs[0].rest
	for {
		var c string
		c, rest = NextComponent(rest)
		if c == "" {
			break
		}
		out = append(out, c)
	}
	return out
}

// followDotDot implements ".." with mount climbing; staying put at the
// task's root (chroot barrier).
func (k *Kernel) followDotDot(t *Task, ns *Namespace, root PathRef, cur PathRef) PathRef {
	for {
		if cur.D == root.D && cur.Mnt == root.Mnt {
			return cur // at the task root: ".." is a no-op
		}
		if cur.D != cur.Mnt.root {
			p := cur.D.Parent()
			if p == nil {
				return cur
			}
			return PathRef{Mnt: cur.Mnt, D: p}
		}
		// At a mount root: climb to the mountpoint in the parent mount.
		if cur.Mnt.parent == nil {
			return cur // global root
		}
		cur = PathRef{Mnt: cur.Mnt.parent, D: cur.Mnt.mountpoint}
	}
}

// hydrate attaches the inode to an unhydrated dentry via GetNode — much
// cheaper than a directory search (§5.1).
func (k *Kernel) hydrate(d *Dentry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Flags()&DUnhydrated == 0 {
		return nil // raced with another hydration
	}
	info, err := d.sb.fs.GetNode(d.hintID)
	if err != nil {
		// The node vanished under us (concurrent FS-level change): treat
		// the dentry as stale.
		return fsapi.ESTALE
	}
	k.Count(NHydrations, 1)
	d.setInode(d.sb.inodeFor(info))
	d.clearFlags(DUnhydrated)
	return nil
}

// missLookup consults the low-level FS for (cur, comp) through an
// in-lookup placeholder dentry (the d_alloc_parallel singleflight): the
// first missing walk installs the placeholder under the parent's child
// map *before* calling the backend, and concurrent walks missing on the
// same name block on its resolution instead of issuing duplicate Lookup
// round trips. The placeholder resolves in place to a positive or
// negative dentry, or is removed on backend error so a later walk can
// retry. The coalesce wait and backend consultation under this miss
// become stage events on tr (nil for untraced walks).
func (k *Kernel) missLookup(cur PathRef, comp string, tr *telemetry.WalkTrace) (*Dentry, error) {
	parent := cur.D
	pIno := parent.Inode()
	if pIno == nil {
		return nil, errSeqRetry
	}

	parent.mu.Lock()
	if d, ok := parent.children[comp]; ok && !d.IsDead() {
		if d.Flags()&DInLookup != 0 {
			il := d.inLookup
			parent.mu.Unlock()
			return k.joinInLookup(d, il, comp, tr)
		}
		parent.mu.Unlock()
		if d.IsNegative() {
			return nil, fsapi.ENOENT
		}
		if d.Flags()&DUnhydrated != 0 {
			if err := k.hydrate(d); err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	// Won the slot. The placeholder is allocated only now — the losing
	// side of the old install race allocated a full dentry, registered it
	// with the LRU, then marked it dead and removed it, pure churn. While
	// DInLookup is set the dentry is visible only through the child map:
	// not in the hash table, not in the LRU, invisible to readdir
	// snapshots and audits.
	k.cacheMutBegin()
	d := k.newDentry(parent.sb, parent, comp)
	d.setFlags(DInLookup)
	il := &inLookupState{done: make(chan struct{})}
	d.inLookup = il
	linked := parent.linkChildLocked(comp, d)
	parent.mu.Unlock()
	k.cacheMutEnd()
	if !linked {
		// The directory was killed under this walk: redo from a live one.
		k.discardDentry(d)
		return nil, errSeqRetry
	}
	k.inLookupCount.Add(1)

	return k.resolveMiss(parent, pIno, comp, d, il, tr)
}

// joinInLookup coalesces a concurrent miss onto the in-flight lookup that
// owns the placeholder: wait for the winner's resolution and adopt its
// outcome — positive, ENOENT, or the backend's error — so K racing walks
// cost exactly one backend round trip.
func (k *Kernel) joinInLookup(d *Dentry, il *inLookupState, comp string, tr *telemetry.WalkTrace) (*Dentry, error) {
	sc := k.stats.cell()
	sc[NMissCoalesced].Add(1)
	tel := k.Telemetry()
	select {
	case <-il.done:
		// Resolved between our child-map read and here: adopt for free.
		if tel != nil {
			tel.Emit(telemetry.JCoalesce, d.ID(), 0, telemetry.NoteNone)
		}
		tr.Event(telemetry.EvCoalesceWait, comp+" (resolved)")
	default:
		sc[NInLookupWaits].Add(1)
		if tel != nil {
			tel.Emit(telemetry.JCoalesce, d.ID(), 0, telemetry.NoteWait)
		}
		waitStart := telemetry.Now()
		<-il.done
		wait := telemetry.Since(waitStart)
		if tel != nil {
			tel.Record(telemetry.HistMissWait, wait)
		}
		tr.EventDur(telemetry.EvCoalesceWait, comp, wait)
		if tr != nil && tel != nil && wait > tel.SlowThreshold() {
			tr.SetAnomaly(telemetry.AnomCoalesceWait)
		}
	}
	if il.err != nil {
		return nil, il.err
	}
	if d.IsDead() {
		return nil, errSeqRetry
	}
	if d.Flags()&DUnhydrated != 0 {
		if err := k.hydrate(d); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// resolveMiss is the winner's half of the in-lookup protocol: one backend
// Lookup, then an in-place resolution of the placeholder that wakes every
// coalesced waiter.
func (k *Kernel) resolveMiss(parent *Dentry, pIno *Inode, comp string, d *Dentry, il *inLookupState, tr *telemetry.WalkTrace) (*Dentry, error) {
	k.Count(NFSLookups, 1)
	tel := k.tel.Load()
	var fsStart int64
	if tel != nil {
		fsStart = telemetry.Now()
	}
	info, err := parent.sb.fs.Lookup(pIno.ID(), comp)
	if fsStart != 0 {
		tel.Record(telemetry.HistFSLookup, telemetry.Since(fsStart))
	}
	switch {
	case err == nil:
		return k.resolvePositive(parent, comp, d, il, parent.sb.inodeFor(info))
	case errors.Is(err, fsapi.ENOENT):
		k.resolveNegative(parent, comp, d, il)
		return nil, fsapi.ENOENT
	default:
		k.resolveRemove(parent, comp, d, il, err)
		return nil, err
	}
}

// resolvePositive publishes the placeholder as a live positive dentry:
// inode attached, DInLookup cleared, hash table and LRU entered.
func (k *Kernel) resolvePositive(parent *Dentry, comp string, d *Dentry, il *inLookupState, ino *Inode) (*Dentry, error) {
	k.cacheMutBegin()
	parent.mu.Lock()
	if d.IsDead() {
		// A concurrent teardown (rename residual, subtree kill) reached
		// the placeholder: the outcome is stale, everyone retries.
		parent.mu.Unlock()
		k.cacheMutEnd()
		ino.put()
		k.finishInLookup(il, errSeqRetry)
		return nil, errSeqRetry
	}
	d.mu.Lock()
	d.setInode(ino)
	d.mu.Unlock()
	d.clearFlags(DInLookup)
	parent.mu.Unlock()
	k.table.insert(d)
	k.lru.add(d)
	k.cacheMutEnd()
	k.finishInLookup(il, nil)
	k.maybeShrink()
	return d, nil
}

// resolveNegative resolves the placeholder to a negative dentry (the
// name is authoritatively absent), or removes it when this file system
// may not cache negatives.
func (k *Kernel) resolveNegative(parent *Dentry, comp string, d *Dentry, il *inLookupState) {
	if !k.negativesAllowed(parent.sb) {
		k.resolveRemove(parent, comp, d, il, fsapi.ENOENT)
		return
	}
	k.cacheMutBegin()
	parent.mu.Lock()
	if d.IsDead() {
		parent.mu.Unlock()
		k.cacheMutEnd()
		k.finishInLookup(il, errSeqRetry)
		return
	}
	d.setFlags(DNegative)
	d.clearFlags(DInLookup)
	parent.mu.Unlock()
	k.table.insert(d)
	k.lru.add(d)
	k.cacheMutEnd()
	k.finishInLookup(il, fsapi.ENOENT)
	k.maybeShrink()
}

// resolveRemove abandons the placeholder (backend error, or a negative
// outcome that may not be cached): the slot is vacated so a later walk
// retries against the backend.
func (k *Kernel) resolveRemove(parent *Dentry, comp string, d *Dentry, il *inLookupState, err error) {
	k.cacheMutBegin()
	parent.mu.Lock()
	d.setFlags(DDead)
	if cur, ok := parent.children[comp]; ok && cur == d {
		delete(parent.children, comp)
		parent.nkids.Add(-1)
		parent.listValid = false
	}
	parent.mu.Unlock()
	k.cacheMutEnd()
	k.finishInLookup(il, err)
	// The placeholder never entered the hash table or LRU; only its slab
	// slot needs reclaiming. Coalesced waiters still holding it are
	// inside their walks' epoch sections, which is exactly what the
	// grace period covers.
	k.retireLater(d)
}

// finishInLookup publishes the outcome and wakes the coalesced waiters.
// Must be called exactly once per placeholder, after its cache state is
// final.
func (k *Kernel) finishInLookup(il *inLookupState, err error) {
	il.err = err
	k.inLookupCount.Add(-1)
	close(il.done)
}

// installUnhydrated installs one readdir result as an inode-less
// ("unhydrated") child of parent, so a later lookup of the name costs a
// GetNode instead of a directory search (§5.1). The slot is won under
// parent.mu before anything is allocated (no dentry is born to lose an
// install race); live incumbents — including other walks' in-lookup placeholders, which
// their own winners will resolve — are left alone.
func (k *Kernel) installUnhydrated(parent *Dentry, e fsapi.DirEntry) {
	k.cacheMutBegin()
	defer k.cacheMutEnd()
	parent.mu.Lock()
	if cur, ok := parent.children[e.Name]; ok && !cur.IsDead() {
		parent.mu.Unlock()
		return
	}
	d := k.newDentry(parent.sb, parent, e.Name)
	d.setFlags(DUnhydrated)
	d.hintID = e.ID
	d.hintType = e.Type
	linked := parent.linkChildLocked(e.Name, d)
	parent.mu.Unlock()
	if !linked {
		k.discardDentry(d)
		return
	}
	k.lru.add(d)
	k.table.insert(d)
}

// negativesAllowed applies the §5.2 policy: pseudo file systems get
// negative dentries only under AggressiveNegatives.
func (k *Kernel) negativesAllowed(sb *Super) bool {
	return !sb.caps.NoNegatives || k.cfg.AggressiveNegatives
}

// installDedup inserts the freshly allocated d under (parent, name) and,
// when inTable, into the slow walk's hash table. If a concurrent walk won
// the slot d is discarded and the incumbent returned; if parent was killed
// meanwhile d is discarded and nil returned — a child attached under a
// dead parent would be reachable from nothing and torn down by no one.
func (k *Kernel) installDedup(parent *Dentry, name string, d *Dentry, inTable bool) *Dentry {
	parent.mu.Lock()
	cur, ok := parent.children[name]
	if ok && !cur.IsDead() {
		parent.mu.Unlock()
		k.discardDentry(d)
		return cur
	}
	linked := parent.linkChildLocked(name, d)
	parent.mu.Unlock()
	if !linked {
		k.discardDentry(d)
		return nil
	}
	if inTable {
		k.table.insert(d)
	}
	k.maybeShrink()
	return d
}

// revalidate re-fetches a dentry's node from the low-level FS (the GETATTR
// round trip of an NFS-style client) and refreshes the cached inode.
// ESTALE (or any failure) means the server-side object is gone.
func (k *Kernel) revalidate(d *Dentry) error {
	ino := d.Inode()
	if ino == nil {
		if d.Flags()&DUnhydrated != 0 {
			return k.hydrate(d)
		}
		return fsapi.ESTALE
	}
	info, err := d.sb.fs.GetNode(ino.ID())
	if err != nil {
		return err
	}
	ino.applyInfo(info)
	return nil
}

// readLinkBody returns the symlink target, caching it in the dentry as
// Linux caches symlink bodies in the page cache.
func (k *Kernel) readLinkBody(d *Dentry) (string, error) {
	if v := d.linkBody.Load(); v != nil {
		return *v, nil
	}
	ino := d.Inode()
	if ino == nil {
		return "", errSeqRetry
	}
	target, err := d.sb.fs.ReadLink(ino.ID())
	if err != nil {
		return "", err
	}
	if target == "" {
		return "", fsapi.EINVAL
	}
	d.linkBody.Store(&target)
	return target, nil
}

// walkParent resolves everything but the last component, returning the
// parent directory and the final name. Used by create-style and
// remove-style operations.
func (t *Task) walkParent(path string) (PathRef, string, error) {
	return t.walkParentAt(PathRef{}, path)
}

// walkParentAt is walkParent starting at `at` for relative paths.
func (t *Task) walkParentAt(at PathRef, path string) (PathRef, string, error) {
	if path == "" {
		return PathRef{}, "", fsapi.ENOENT
	}
	if len(path) >= MaxPath {
		return PathRef{}, "", fsapi.ENAMETOOLONG
	}
	// Strip trailing slashes.
	end := len(path)
	for end > 0 && path[end-1] == '/' {
		end--
	}
	if end == 0 {
		// Path was "/" (or all slashes): no parent to speak of.
		return PathRef{}, "", fsapi.EBUSY
	}
	i := end - 1
	for i >= 0 && path[i] != '/' {
		i--
	}
	last := path[i+1 : end]
	if last == "." || last == ".." {
		return PathRef{}, "", fsapi.EINVAL
	}
	if len(last) > 255 {
		return PathRef{}, "", fsapi.ENAMETOOLONG
	}
	var dir string
	switch {
	case i < 0:
		dir = "."
	case i == 0:
		dir = "/"
	default:
		dir = path[:i]
	}
	ref, err := t.WalkFrom(at, dir, WalkDirectory)
	if err != nil {
		return PathRef{}, "", err
	}
	return ref, last, nil
}
