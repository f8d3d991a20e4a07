package core

import (
	"dircache/internal/sig"
	"dircache/internal/vfs"
)

// cursorInline is the stack depth served by the cursor's inline arrays;
// deeper paths spill to heap-backed overflow slices.
const cursorInline = 24

// pathCursor is the shared component-iteration state used by the fastpath
// scan (TryFast) and slow-path population (lexicalHash): a resumable
// signature state, a stack of per-prefix states for ".." pops, and a base
// reference for pops that climb above the scan's own components. The
// first cursorInline stack frames live in fixed inline arrays; deeper
// paths spill to overflow slices (rare, and by then the walk is paying
// per-component cost anyway).
//
// The frames are indexed by an explicit depth counter rather than held in
// slices over the inline arrays: a slice like stack = stackArr[:0] stores
// a pointer to the struct into the struct, which forces escape analysis
// to heap-allocate every cursor — one ~2 KB allocation per TryFast. With
// plain arrays plus a counter the cursor stays on the caller's stack and
// the warm path stays allocation-free.
type pathCursor struct {
	st     sig.State
	base   vfs.PathRef
	atBase bool // st currently equals base's state

	n        int // components currently pushed above base
	stackArr [cursorInline]sig.State
	xstack   []sig.State // overflow frames cursorInline.. (heap)

	// Best-effort dentry cursor tracking the lexical path (population
	// only; enable with trackD before seeding).
	trackD    bool
	cursor    vfs.PathRef
	dstackArr [cursorInline]vfs.PathRef
	xdstack   []vfs.PathRef

	hashed int // bytes appended to signature states during this scan
}

// init points the cursor at start, resuming the hash from start's
// memoized canonical state. False means the state is unavailable (the
// caller should fall back).
func (pc *pathCursor) init(c *Core, start vfs.PathRef) bool {
	st, ok := c.ensureState(start)
	if !ok {
		return false
	}
	pc.st = st
	pc.base = start
	pc.atBase = true
	pc.cursor = start
	return true
}

// depth returns the number of components currently pushed above base.
func (pc *pathCursor) depth() int { return pc.n }

// push extends the cursor by one ordinary component. False means the path
// would exceed sig.MaxPathLen.
func (pc *pathCursor) push(comp string) bool {
	if !pc.st.Fits(len(comp) + 1) {
		return false
	}
	if pc.n < cursorInline {
		pc.stackArr[pc.n] = pc.st
		if pc.trackD {
			pc.dstackArr[pc.n] = pc.cursor
		}
	} else {
		pc.xstack = append(pc.xstack, pc.st)
		if pc.trackD {
			pc.xdstack = append(pc.xdstack, pc.cursor)
		}
	}
	pc.n++
	pc.st = pc.st.AppendByte('/').AppendString(comp)
	pc.hashed += len(comp) + 1
	pc.atBase = false
	return true
}

// pop steps the cursor one component up ("..") — off the stack when the
// scan has pushed components, else by climbing base toward the task
// root. False means the base's state is unavailable.
func (pc *pathCursor) pop(c *Core, t *vfs.Task) bool {
	if pc.n > 0 {
		pc.n--
		if pc.n < cursorInline {
			pc.st = pc.stackArr[pc.n]
			if pc.trackD {
				pc.cursor = pc.dstackArr[pc.n]
			}
		} else {
			k := pc.n - cursorInline
			pc.st = pc.xstack[k]
			if pc.trackD {
				pc.cursor = pc.xdstack[k]
				pc.xdstack = pc.xdstack[:k]
			}
			pc.xstack = pc.xstack[:k]
		}
		pc.atBase = pc.n == 0
		return true
	}
	pc.base = parentRef(t, pc.base)
	st, ok := c.ensureState(pc.base)
	if !ok {
		return false
	}
	pc.st = st
	pc.atBase = true
	if pc.trackD {
		pc.cursor = pc.base
	}
	return true
}

// flush folds the cursor's hashed-byte count into the core's counters;
// callers defer it so every exit path is accounted.
func (pc *pathCursor) flush(c *Core) {
	if pc.hashed != 0 {
		c.stats.hashedBytes.Add(int64(pc.hashed))
	}
}
