package core

import (
	"dircache/internal/sig"
	"dircache/internal/vfs"
)

// cursorInline is the path depth served by the cursor's inline component
// stack; deeper paths spill to a heap-backed overflow slice.
const cursorInline = 24

// pathCursor is the shared component-iteration state used by the fastpath
// scan (TryFast) and slow-path population (lexicalHash): one signature
// state, extended and shrunk in place, the stack of components pushed so
// far (slices of the caller's path), and a base reference for ".." pops
// that climb above the scan's own components. There is no stack of saved
// states: the hash is linear in position-keyed bytes, so a pop subtracts
// the popped component's terms (sig.UnappendComponent). The first
// cursorInline components live in a fixed inline array; deeper paths
// spill to an overflow slice (rare, and by then the walk is paying
// per-component cost anyway).
//
// The stack is indexed by an explicit depth counter rather than held in a
// slice over the inline array: a slice like comps = arr[:0] stores a
// pointer to the struct into the struct, which forces escape analysis to
// heap-allocate every cursor. With a plain array plus a counter the
// cursor stays on its owner's stack and the warm path stays
// allocation-free.
type pathCursor struct {
	st   sig.State
	base vfs.PathRef

	n      int // components currently pushed above base; 0 means st is base's state
	comps  [cursorInline]string
	xcomps []string // overflow components cursorInline.. (heap)

	// The walk's tallies, which flush counts in one add.
	hashed int  // bytes appended to the signature state during this scan
	memo   bool // the prefix memo served the scan's directory prefix
	hit    bool // the walk was answered from the fastpath
}

// init points the cursor at start, resuming the hash from start's
// memoized canonical state. False means the state is unavailable (the
// caller should fall back).
func (pc *pathCursor) init(c *Core, start vfs.PathRef) bool {
	pc.base = start
	return c.pathState(start, &pc.st, true)
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
		pc.comps[pc.n] = comp
	} else {
		pc.xcomps = append(pc.xcomps, comp)
	}
	pc.n++
	pc.st.AppendComponent(comp)
	pc.hashed += len(comp) + 1
	return true
}

// resume stands the cursor where pushing a memoized prefix's components
// would have: its delta applied, its depth counted. The components
// themselves are not recorded, so nothing may pop after it — the scan
// resumes only where the one component left is an ordinary name.
func (pc *pathCursor) resume(e *memoEntry) {
	pc.st.Apply(&e.d)
	pc.n = e.depth
}

// last hashes the path's final component, which nothing pops: unlike
// push it records nothing, so a resumed cursor deeper than the inline
// stack does not spill.
func (pc *pathCursor) last(comp string) bool {
	if !pc.st.Fits(len(comp) + 1) {
		return false
	}
	pc.n++
	pc.st.AppendComponent(comp)
	pc.hashed += len(comp) + 1
	return true
}

// pop steps the cursor one component up ("..") — by un-hashing the last
// pushed component when the scan has pushed any, else by climbing base
// toward the task root. False means the base's state is unavailable.
func (pc *pathCursor) pop(c *Core, t *vfs.Task) bool {
	if pc.n == 0 {
		return pc.init(c, parentRef(t, pc.base))
	}
	pc.n--
	comp := ""
	if pc.n < cursorInline {
		comp = pc.comps[pc.n]
	} else {
		comp = pc.xcomps[pc.n-cursorInline]
		pc.xcomps = pc.xcomps[:pc.n-cursorInline]
	}
	pc.st.UnappendComponent(comp)
	return true
}

// flush counts the cursor's tallies — hashed bytes, a memo-served prefix,
// a hit — in one add; the cursor's owner calls it once, after the scan,
// on every exit.
func (pc *pathCursor) flush(c *Core) {
	c.k.CountFast(pc.hit, pc.memo, pc.hashed)
}
