package vfs

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/remotefs"
)

// gateFS wraps a backing file system and blocks the first Lookup of one
// armed name until released, so a test can hold a miss in flight while
// concurrent walks pile onto its in-lookup placeholder.
type gateFS struct {
	fsapi.FileSystem
	mu      sync.Mutex
	armed   string
	failErr error
	entered chan struct{} // closed when the gated Lookup arrives
	release chan struct{} // the gated Lookup blocks until this closes
}

func newGateFS(backing fsapi.FileSystem) *gateFS {
	return &gateFS{FileSystem: backing}
}

// arm gates the next Lookup of name; if failErr is non-nil the gated call
// returns it instead of consulting the backing FS.
func (g *gateFS) arm(name string, failErr error) {
	g.mu.Lock()
	g.armed = name
	g.failErr = failErr
	g.entered = make(chan struct{})
	g.release = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateFS) Lookup(dir fsapi.NodeID, name string) (fsapi.NodeInfo, error) {
	g.mu.Lock()
	gated := g.armed == name
	var entered, release chan struct{}
	var failErr error
	if gated {
		g.armed = "" // one-shot: later lookups of the name pass through
		entered, release, failErr = g.entered, g.release, g.failErr
	}
	g.mu.Unlock()
	if gated {
		close(entered)
		<-release
		if failErr != nil {
			return fsapi.NodeInfo{}, failErr
		}
	}
	return g.FileSystem.Lookup(dir, name)
}

// newStormKernel builds a kernel over gate(memfs) seen through remotefs,
// so the test can both hold a backend Lookup in flight and count the RPCs
// the storm actually issued.
func newStormKernel(t *testing.T, mode SyncMode) (*Kernel, *Task, *gateFS, *remotefs.FS) {
	t.Helper()
	gate := newGateFS(memfs.New(memfs.Options{}))
	remote := remotefs.New(gate, remotefs.Options{RTTNanos: 1})
	k := NewKernel(Config{SyncMode: mode}, remote)
	root := k.NewTask(cred.Root())
	if err := root.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.Create("/dir/target", 0o644); err != nil {
		t.Fatal(err)
	}
	// Creation cached the new dentries; drop them so the storm's walks are
	// cold, then re-warm just the parent so the only miss left is the
	// final component.
	k.DropCaches()
	if _, err := root.Stat("/dir"); err != nil {
		t.Fatal(err)
	}
	return k, root, gate, remote
}

// stormResult is one racing walker's outcome.
type stormResult struct {
	info fsapi.NodeInfo
	err  error
}

// runStorm launches kN concurrent walks of path, waits until the gated
// backend Lookup is in flight and every other walker has coalesced onto
// the placeholder, then releases the gate and collects all outcomes.
func runStorm(t *testing.T, k *Kernel, path string, kN int, gate *gateFS) []stormResult {
	t.Helper()
	before := k.Stats()
	results := make([]stormResult, kN)
	var wg sync.WaitGroup
	for i := 0; i < kN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			task := k.NewTask(cred.Root())
			info, err := task.Stat(path)
			results[i] = stormResult{info: info, err: err}
		}(i)
	}
	<-gate.entered
	// All walkers that did not win the slot must have joined the in-flight
	// lookup before the gate opens, or the test would not be exercising
	// coalescing at all.
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := k.Stats().Delta(before)
		if d.MissCoalesced >= int64(kN-1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d walkers coalesced", d.MissCoalesced, kN-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(gate.release)
	wg.Wait()
	return results
}

// TestMissCoalescing proves the singleflight: K concurrent walks missing
// on the same component issue exactly one backend LOOKUP, and every
// walker adopts the winner's result.
func TestMissCoalescing(t *testing.T) {
	const K = 8
	for _, mode := range []SyncMode{SyncRCU, SyncBucketLock} {
		t.Run(mode.String(), func(t *testing.T) {
			k, _, gate, remote := newStormKernel(t, mode)
			pre := remote.OpCount("lookup")
			gate.arm("target", nil)
			results := runStorm(t, k, "/dir/target", K, gate)
			if got := remote.OpCount("lookup") - pre; got != 1 {
				t.Fatalf("storm of %d walks issued %d backend lookups, want exactly 1", K, got)
			}
			for i, r := range results {
				if r.err != nil {
					t.Fatalf("walker %d: %v", i, r.err)
				}
				if r.info.ID != results[0].info.ID {
					t.Fatalf("walker %d resolved node %d, walker 0 resolved %d", i, r.info.ID, results[0].info.ID)
				}
			}
			d := k.Stats()
			if d.MissCoalesced < K-1 {
				t.Fatalf("MissCoalesced = %d, want >= %d", d.MissCoalesced, K-1)
			}
			if k.InLookupCount() != 0 {
				t.Fatalf("in-lookup gauge = %d after storm, want 0", k.InLookupCount())
			}
		})
	}
}

// TestMissCoalescingENOENT is the negative variant: the storm races on a
// name that does not exist; one LOOKUP answers every walker with ENOENT.
func TestMissCoalescingENOENT(t *testing.T) {
	const K = 8
	k, _, gate, remote := newStormKernel(t, SyncRCU)
	pre := remote.OpCount("lookup")
	gate.arm("ghost", nil)
	results := runStorm(t, k, "/dir/ghost", K, gate)
	if got := remote.OpCount("lookup") - pre; got != 1 {
		t.Fatalf("ENOENT storm of %d walks issued %d backend lookups, want exactly 1", K, got)
	}
	for i, r := range results {
		if !errors.Is(r.err, fsapi.ENOENT) {
			t.Fatalf("walker %d: got %v, want ENOENT", i, r.err)
		}
	}
	if k.InLookupCount() != 0 {
		t.Fatalf("in-lookup gauge = %d after storm, want 0", k.InLookupCount())
	}
}

// TestMissCoalescingBackendError proves error propagation and retry: the
// winner's backend error reaches every coalesced walker, the placeholder
// is removed rather than cached, and the next walk consults the backend
// afresh.
func TestMissCoalescingBackendError(t *testing.T) {
	const K = 8
	k, root, gate, remote := newStormKernel(t, SyncRCU)
	pre := remote.OpCount("lookup")
	gate.arm("target", fsapi.EIO)
	results := runStorm(t, k, "/dir/target", K, gate)
	if got := remote.OpCount("lookup") - pre; got != 1 {
		t.Fatalf("failing storm of %d walks issued %d backend lookups, want exactly 1", K, got)
	}
	for i, r := range results {
		if !errors.Is(r.err, fsapi.EIO) {
			t.Fatalf("walker %d: got %v, want EIO", i, r.err)
		}
	}
	if k.InLookupCount() != 0 {
		t.Fatalf("in-lookup gauge = %d after storm, want 0", k.InLookupCount())
	}
	// The error was not cached: a later walk retries the backend and
	// resolves the (existing) name.
	if _, err := root.Stat("/dir/target"); err != nil {
		t.Fatalf("post-error stat: %v", err)
	}
	if got := remote.OpCount("lookup") - pre; got != 2 {
		t.Fatalf("post-error stat issued %d total lookups, want 2", remote.OpCount("lookup")-pre)
	}
}

// newScanKernel builds a completeness-caching kernel over remotefs with
// children files under /dir, then drops every dentry but /dir itself.
func newScanKernel(t *testing.T, children int) (*Kernel, *Task, *remotefs.FS, []string) {
	t.Helper()
	remote := remotefs.New(memfs.New(memfs.Options{}), remotefs.Options{RTTNanos: 1})
	k := NewKernel(Config{DirCompleteness: true}, remote)
	root := k.NewTask(cred.Root())
	if err := root.Mkdir("/dir", 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, children)
	for i := range names {
		names[i] = string(rune('a' + i))
		if err := root.Create("/dir/"+names[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	k.DropCaches()
	if _, err := root.Stat("/dir"); err != nil {
		t.Fatal(err)
	}
	return k, root, remote, names
}

// TestColdScanOneLookupPerName pins the slow-path miss at exactly one
// backend Lookup: a cold per-name scan of N names costs N Lookups, never
// lists the directory on the application's behalf, and so never earns
// DIR_COMPLETE (§5.1 grants it only to a readdir the application issued,
// or to mkdir).
func TestColdScanOneLookupPerName(t *testing.T) {
	const children = 16
	k, root, remote, names := newScanKernel(t, children)
	before := k.Stats()
	preLookup, preReadDir := remote.OpCount("lookup"), remote.OpCount("readdir")
	for _, n := range names {
		if _, err := root.Stat("/dir/" + n); err != nil {
			t.Fatalf("stat %s: %v", n, err)
		}
	}
	d := k.Stats().Delta(before)
	if d.FSLookups != children {
		t.Fatalf("FSLookups = %d, want %d (one per name)", d.FSLookups, children)
	}
	if n := remote.OpCount("lookup") - preLookup; n != children {
		t.Fatalf("scan issued %d LOOKUPs, want %d", n, children)
	}
	if n := remote.OpCount("readdir") - preReadDir; n != 0 {
		t.Fatalf("scan issued %d READDIRs the application never asked for, want 0", n)
	}
	ref, err := root.Walk("/dir", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.D.Flags()&DComplete != 0 {
		t.Fatal("directory marked DIR_COMPLETE by per-name lookups alone")
	}
}

// TestScanAfterReadDirAnswersFromCache is the other half of §5.1: once the
// application has listed the directory, the same scan costs no backend
// Lookup (each stub hydrates by GetNode) and an absent name is answered
// by completeness.
func TestScanAfterReadDirAnswersFromCache(t *testing.T) {
	const children = 16
	k, root, remote, names := newScanKernel(t, children)
	f, err := root.Open("/dir", O_RDONLY|O_DIRECTORY, 0)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := f.ReadDirAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ents) != children {
		t.Fatalf("readdir returned %d entries, want %d", len(ents), children)
	}
	ref, err := root.Walk("/dir", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.D.Flags()&DComplete == 0 {
		t.Fatal("directory not DIR_COMPLETE after a full readdir")
	}

	before := k.Stats()
	preLookup := remote.OpCount("lookup")
	for _, n := range names {
		if _, err := root.Stat("/dir/" + n); err != nil {
			t.Fatalf("stat %s: %v", n, err)
		}
	}
	if _, err := root.Stat("/dir/nope"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("stat absent: %v, want ENOENT", err)
	}
	d := k.Stats().Delta(before)
	if d.FSLookups != 0 || remote.OpCount("lookup") != preLookup {
		t.Fatalf("scan after readdir: FSLookups=%d LOOKUP RPCs=%d, want 0/0",
			d.FSLookups, remote.OpCount("lookup")-preLookup)
	}
	if d.Hydrations != children {
		t.Fatalf("Hydrations = %d, want %d (one GetNode per listed stub)", d.Hydrations, children)
	}
	if d.CompleteShort != 1 {
		t.Fatalf("absent name: CompleteShort=%d, want 1", d.CompleteShort)
	}
}
