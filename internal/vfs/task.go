package vfs

import (
	"sync"
	"sync/atomic"

	"dircache/internal/cred"
	"dircache/internal/telemetry"
)

// Task is a process as the VFS sees it: credentials, a root directory
// (chroot), a current working directory, and a mount namespace. All
// path-based operations hang off a Task. The hot-path state (cred, root,
// cwd, namespace) is read atomically — a lookup takes no task lock.
type Task struct {
	k *Kernel

	credp atomic.Pointer[cred.Cred]
	rootp atomic.Pointer[PathRef]
	cwdp  atomic.Pointer[PathRef]
	nsp   atomic.Pointer[Namespace]

	mu sync.Mutex // serializes state swaps (chdir/chroot/unshare/exit)

	// segScratch is the slow walk's segment-stack scratch buffer, reused
	// across walks to keep walkOnce allocation-free. segBusy guards it:
	// concurrent walks on one shared Task are legal (if unusual), so a
	// loser of the CAS falls back to a fresh stack allocation.
	segScratch []segment
	segBusy    atomic.Bool

	// armedTrace is a server-installed span for the task's next walk:
	// the 9P dispatch arms it so the kernel walk annotates the wire span
	// in place, stitching client RPC, server dispatch, and walk stages
	// into one end-to-end trace. Consumed (cleared) by the first walk.
	armedTrace atomic.Pointer[telemetry.WalkTrace]
}

// ArmTrace installs (or with nil clears) a span for the task's next walk.
// The walk consumes it via takeArmedTrace; its owner finishes it. Used by
// the 9P server to stitch a wire span around the kernel walk it triggers.
func (t *Task) ArmTrace(tr *telemetry.WalkTrace) { t.armedTrace.Store(tr) }

// takeArmedTrace consumes the armed span, if any.
func (t *Task) takeArmedTrace() *telemetry.WalkTrace {
	if t.armedTrace.Load() == nil {
		return nil
	}
	return t.armedTrace.Swap(nil)
}

// acquireSegs returns a 1-length segment stack for a slow walk: the
// task's scratch buffer when free, a fresh allocation otherwise.
func (t *Task) acquireSegs() (segs []segment, scratch bool) {
	if t.segBusy.CompareAndSwap(false, true) {
		if cap(t.segScratch) == 0 {
			t.segScratch = make([]segment, 0, 8)
		}
		return t.segScratch[:1], true
	}
	return make([]segment, 1, 4), false
}

// releaseSegs returns the (possibly grown) scratch buffer to the task.
func (t *Task) releaseSegs(segs []segment, scratch bool) {
	if !scratch {
		return
	}
	full := segs[:cap(segs)]
	for i := range full {
		full[i] = segment{} // drop path-string references
	}
	t.segScratch = full[:0]
	t.segBusy.Store(false)
}

// NewTask creates a task in the initial namespace rooted at "/" with the
// given credentials.
func (k *Kernel) NewTask(c *cred.Cred) *Task {
	ns := k.initNS
	rootRef := PathRef{Mnt: ns.RootMount(), D: ns.RootMount().Root()}
	t := &Task{k: k}
	t.nsp.Store(ns)
	t.rootp.Store(&rootRef)
	t.cwdp.Store(&rootRef)
	t.credp.Store(c)
	rootRef.D.Ref()
	rootRef.D.Ref() // one pin for root, one for cwd
	return t
}

// Kernel returns the owning kernel.
func (t *Task) Kernel() *Kernel { return t.k }

// Cred returns the task's current credentials.
func (t *Task) Cred() *cred.Cred { return t.credp.Load() }

// SetCred commits new credentials (callers should obtain them via
// cred.Commit to get the paper's dedup behaviour).
func (t *Task) SetCred(c *cred.Cred) { t.credp.Store(c) }

// Namespace returns the task's mount namespace.
func (t *Task) Namespace() *Namespace { return t.nsp.Load() }

// Root returns the task's root directory reference.
func (t *Task) Root() PathRef { return *t.rootp.Load() }

// Cwd returns the task's working directory reference.
func (t *Task) Cwd() PathRef { return *t.cwdp.Load() }

// Fork clones the task: same credentials (shared — and thus a shared PCC,
// as when a shell forks children, §4.1), same root/cwd/namespace.
func (t *Task) Fork() *Task {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := &Task{k: t.k}
	n.nsp.Store(t.nsp.Load())
	n.rootp.Store(t.rootp.Load())
	n.cwdp.Store(t.cwdp.Load())
	n.credp.Store(t.Cred())
	n.Root().D.Ref()
	n.Cwd().D.Ref()
	return n
}

// Recycle returns the task to its newborn state under new credentials:
// initial namespace, root and cwd at "/", and no armed trace. The segment
// scratch buffer is kept (its contents are zeroed on every release). Must
// not race in-flight walks on the same task.
func (t *Task) Recycle(c *cred.Cred) {
	t.mu.Lock()
	defer t.mu.Unlock()
	oldRoot := *t.rootp.Load()
	oldCwd := *t.cwdp.Load()
	ns := t.k.initNS
	rootRef := PathRef{Mnt: ns.RootMount(), D: ns.RootMount().Root()}
	rootRef.D.Ref()
	rootRef.D.Ref() // one pin for root, one for cwd
	t.nsp.Store(ns)
	t.rootp.Store(&rootRef)
	t.cwdp.Store(&rootRef)
	t.credp.Store(c)
	t.armedTrace.Store(nil)
	oldRoot.D.Unref()
	oldCwd.D.Unref()
}

// Exit releases the task's directory pins.
func (t *Task) Exit() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Root().D.Unref()
	t.Cwd().D.Unref()
}

// setCwd swaps the working directory pin.
func (t *Task) setCwd(p PathRef) {
	p.D.Ref()
	t.mu.Lock()
	old := *t.cwdp.Load()
	t.cwdp.Store(&p)
	t.mu.Unlock()
	old.D.Unref()
}

// setRoot swaps the root pin (chroot).
func (t *Task) setRoot(p PathRef) {
	p.D.Ref()
	t.mu.Lock()
	old := *t.rootp.Load()
	t.rootp.Store(&p)
	t.mu.Unlock()
	old.D.Unref()
}

// UnshareNamespace gives the task a private copy of its mount namespace
// (CLONE_NEWNS) and returns it.
func (t *Task) UnshareNamespace() *Namespace {
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := t.nsp.Load().clone(t.k)
	t.nsp.Store(ns)
	t.k.aliasEpoch.Add(1)
	// root/cwd keep pointing at the same dentries; remap their mounts to
	// the clones so future walks use the private table.
	root := remapRef(ns, *t.rootp.Load())
	t.rootp.Store(&root)
	cwd := remapRef(ns, *t.cwdp.Load())
	t.cwdp.Store(&cwd)
	return ns
}

// remapRef finds the cloned mount corresponding to ref.Mnt by matching
// (sb, root, mountpoint) identity in the new namespace.
func remapRef(ns *Namespace, ref PathRef) PathRef {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	if m := findEquivalent(ns, ref.Mnt); m != nil {
		return PathRef{Mnt: m, D: ref.D}
	}
	return PathRef{Mnt: ns.root, D: ref.D}
}

func findEquivalent(ns *Namespace, old *Mount) *Mount {
	if sameMountShape(ns.root, old) {
		return ns.root
	}
	for _, m := range ns.mounts {
		if sameMountShape(m, old) {
			return m
		}
	}
	return nil
}

func sameMountShape(a, b *Mount) bool {
	return a.sb == b.sb && a.root == b.root && a.mountpoint == b.mountpoint
}
