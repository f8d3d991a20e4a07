package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dircache/internal/audit"
	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/sig"
	"dircache/internal/vfs"
)

// TestStressFastpathVsMutate races whole-path fastpath walkers against
// rename/chmod/Shrink traffic on a fully optimized kernel. It is the
// `make race` gate for the striped PCC counters, the racy PCC set-LRU
// word, the invalidation epoch, and the sharded dentry LRU as seen
// through the hooks. Walk results must stay correct throughout: stable
// paths resolve, missing paths ENOENT.
func TestStressFastpathVsMutate(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{
		CacheCapacity:       128,
		DirCompleteness:     true,
		AggressiveNegatives: true,
	}, memfs.New(memfs.Options{}))
	c := Install(k, Config{Seed: 42, DeepNegatives: true, SymlinkAliases: true})
	root := k.NewTask(cred.Root())

	mk := func(p string) {
		if err := root.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/a", "/a/b", "/a/b/c", "/mv", "/tmp"} {
		mk(p)
	}
	if err := root.Create("/a/b/c/file", 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := root.Create(fmt.Sprintf("/tmp/s%03d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	iters := 3000
	if testing.Short() {
		iters = 300
	}
	var wg sync.WaitGroup

	// Fastpath walkers: same credential on every goroutine, so they all
	// share one PCC (and its striped hit counters).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			task := k.NewTask(cred.Root())
			for i := 0; i < iters; i++ {
				if _, err := task.Stat("/a/b/c/file"); err != nil {
					panic(fmt.Sprintf("stable path vanished: %v", err))
				}
				task.Stat(fmt.Sprintf("/tmp/s%03d", (seed*17+i)%64))
				if _, err := task.Stat("/a/b/c/enoent"); err == nil {
					panic("missing path resolved")
				}
				task.Stat("/mv/dir") // flaps between ENOENT and hit
			}
		}(g)
	}

	// Mutators: rename swings a subtree in and out of /mv, chmod bumps
	// the invalidation epoch over the walkers' prefix, and the shrinker
	// churns the LRU under the DLHT.
	wg.Add(1)
	go func() {
		defer wg.Done()
		task := k.NewTask(cred.Root())
		task.Mkdir("/mvsrc", 0o755)
		for i := 0; i < iters; i++ {
			task.Rename("/mvsrc", "/mv/dir")
			task.Rename("/mv/dir", "/mvsrc")
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		task := k.NewTask(cred.Root())
		for i := 0; i < iters; i++ {
			task.Chmod("/a/b", fsapi.Mode(0o755))
			task.Chmod("/a/b", fsapi.Mode(0o711))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			k.Shrink(8)
		}
	}()

	wg.Wait()

	st := c.Stats()
	ks := k.Stats()
	if ks.Lookups <= 0 || st.TryFast <= 0 {
		t.Fatalf("stress lost traffic: kernel %+v core %+v", ks, st)
	}
	if _, err := root.Stat("/a/b/c/file"); err != nil {
		t.Fatalf("tree damaged by stress run: %v", err)
	}
}

// TestDLHTResizeVsTryFast is vfs's TestTableResizeVsLookup for the shared
// table's other user (`make race` runs it under the detector). A writer
// publishes enough new paths to take the namespace's DLHT from its first
// thousand buckets through four doublings, renaming a file and removing a
// directory as it goes so chains lose nodes between doublings too, and
// stamping a permission mark after every file over a resident set that
// readers probe the whole time — through Stat, which is TryFast, and
// straight at the table. A direct probe must return exactly the resident dentry every
// time (a permission change keeps table entries, so nobody removes them):
// nil is a reader caught on an array whose chains were not yet, or no
// longer, complete. Afterwards the DLHT has grown and not past the index's
// width, and the auditor — dlht_placement reads each node's full 16-bit
// index against the dentry's — is clean.
func TestDLHTResizeVsTryFast(t *testing.T) {
	const (
		resident = 128
		dirs     = 16
		perDir   = 560 // dirs*perDir published names: past 1<<13, so the table reaches 1<<14
	)
	if testing.Short() {
		t.Skip("publishes 9k paths")
	}
	k, c, root := optimized(t)
	if err := root.Mkdir("/res", 0o755); err != nil {
		t.Fatal(err)
	}
	dl := c.dlhtFor(root.Namespace())
	if st := dl.Stats(); st.Buckets != 1<<10 {
		t.Fatalf("a new DLHT holds %+v, want 1024 buckets", st)
	}
	paths := make([]string, resident)
	idxs := make([]uint16, resident)
	sgs := make([]sig.Signature, resident)
	want := make([]*vfs.Dentry, resident)
	probe := func(n int) *vfs.Dentry {
		ep := k.Gate().Enter()
		defer k.Gate().Exit(ep)
		return dl.Lookup(idxs[n], sgs[n])
	}
	for i := range paths {
		paths[i] = fmt.Sprintf("/res/r%03d", i)
		if err := root.Create(paths[i], 0o644); err != nil {
			t.Fatal(err)
		}
		ref, err := root.Walk(paths[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref.D
		idxs[i], sgs[i] = c.key.HashString(paths[i])
		if probe(i) != ref.D {
			t.Fatalf("%s was walked and is not in the DLHT", paths[i])
		}
	}
	before := dl.Stats()

	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			task := k.NewTask(cred.Root())
			for i := g; !done.Load(); i++ {
				n := i % resident
				if got := probe(n); got != want[n] {
					t.Errorf("probe of resident %s returned %v, want dentry #%d", paths[n], got, want[n].ID())
					return
				}
				if _, err := task.Stat(paths[n]); err != nil {
					t.Errorf("stat of resident %s: %v", paths[n], err)
					return
				}
			}
		}(g)
	}
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/w%02d", d)
		if err := root.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < perDir; f++ {
			p := fmt.Sprintf("%s/f%03d", dir, f)
			if err := root.Create(p, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := root.Stat(p); err != nil {
				t.Fatal(err)
			}
			// The chmod loop runs here and not beside the writer: a publish
			// that overlaps a mutation is declined, and on one CPU a
			// mutator parked inside its bracket would starve the table of
			// the entries this test needs it to grow by.
			if err := root.Chmod("/res", fsapi.Mode(0o755-f&1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := root.Rename(dir+"/f000", dir+"/g000"); err != nil {
			t.Fatal(err)
		}
		if err := root.Mkdir(dir+"/sub", 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := root.Stat(dir + "/sub"); err != nil {
			t.Fatal(err)
		}
		if err := root.Rmdir(dir + "/sub"); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()

	after := dl.Stats()
	if got := after.Resizes - before.Resizes; got < 4 || after.Entries > after.Buckets || after.Buckets > 1<<sig.IndexBits {
		t.Fatalf("DLHT went %+v -> %+v: %d doublings, want >= 4, entries <= buckets <= 65536", before, after, got)
	}
	r := audit.New(k, c).RunUntilValid(10)
	if !r.Valid || r.Violations() != 0 || r.Checked["dlht_placement"] < dirs*perDir {
		t.Fatalf("audit after the storm: %s", r.Summary())
	}
}
