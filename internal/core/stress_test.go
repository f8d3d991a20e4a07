package core

import (
	"fmt"
	"runtime"
	"strings"
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

	st := c.k.Stats()
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
// longer, complete. Afterwards, once the readers have stopped and two more
// paths are published, the DLHT has grown and not past the index's width,
// and the auditor — dlht_placement reads each entry's filed 16-bit
// index against its key's — is clean.
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
	dl := root.Namespace().DLHT()
	if st := dl.Stats(); st.Buckets != 1<<10 {
		t.Fatalf("a new DLHT holds %+v, want 1024 buckets", st)
	}
	paths := make([]string, resident)
	sts := make([]sig.State, resident)
	want := make([]*vfs.Dentry, resident)
	probeN := func(n int) *vfs.Dentry {
		ep := k.Gate().Enter()
		defer k.Gate().Exit(ep)
		return probe(dl, &sts[n])
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
		sts[i] = c.key.NewState().AppendString(paths[i])
		if probeN(i) != ref.D {
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
				if got := probeN(n); got != want[n] {
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
	// Table.grow lets a reader pinned since the last doubling hold the
	// next one back, and the readers may have stayed pinned through the
	// writer's last insert. With them stopped, a doubling still due lands
	// on the next publishes: two, because a publish's own walk section
	// pins the epoch it entered in, one of the two the gate must leave
	// behind before the table may double.
	for i := 0; i < 2; i++ {
		p := fmt.Sprintf("/w00/h%d", i)
		if err := root.Create(p, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := root.Stat(p); err != nil {
			t.Fatal(err)
		}
	}

	after := dl.Stats()
	if got := after.Resizes - before.Resizes; got < 4 || after.Entries > after.Buckets || after.Buckets > 1<<sig.IndexBits {
		t.Fatalf("DLHT went %+v -> %+v: %d doublings, want >= 4, entries <= buckets <= 65536", before, after, got)
	}
	r := audit.New(k, c).RunUntilValid(10)
	if !r.Valid || r.Violations() != 0 || r.Checked["dlht_placement"] < dirs*perDir {
		t.Fatalf("audit after the storm: %s", r.Summary())
	}
}

// renameStormState is the tree TestStressWalkVsRenameRoundTrip's walkers
// judge a stable phase against: the directory holding x, sub/y and
// nothing else, where it is, whether it is 0700, and whether /a is
// covered by a mount holding only the directory x.
type renameStormState struct {
	at      string // "/a", "/a.mv" or "/b"
	locked  bool
	mounted bool
}

// want is what a stat of path answers in state s: the errno, and whether
// the node is a directory.
func (s *renameStormState) want(path string, user bool) (fsapi.Errno, bool) {
	dir, rest, _ := strings.Cut(path[1:], "/")
	if "/"+dir != s.at {
		return fsapi.ENOENT, false
	}
	if s.mounted {
		if rest == "x" {
			return 0, true
		}
		return fsapi.ENOENT, false
	}
	if s.locked && user {
		return fsapi.EACCES, false
	}
	switch rest {
	case "x", "sub/y":
		return 0, false
	case "sub":
		return 0, true
	}
	return fsapi.ENOENT, false
}

// TestStressWalkVsRenameRoundTrip races walkers below /a against a mutator
// that renames /a away and back (round trips, with walks in the window or
// not), moves it to /b for a while, chmods it 0700 and back, and once
// mounts a file system over it. A structural mark there re-derives its
// descendants' keys and keeps what a round trip did not move; a phase
// counter moves before and after every mutation, and a walk that read the
// same stable phase on both sides is judged against the tree of that
// phase, for root and for an unprivileged user. At quiescence the auditor
// must be clean.
func TestStressWalkVsRenameRoundTrip(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{DirCompleteness: true, AggressiveNegatives: true}, memfs.New(memfs.Options{}))
	c := Install(k, Config{Seed: 37, DeepNegatives: true})
	root := k.NewTask(cred.Root())
	for _, d := range []string{"/a", "/a/sub"} {
		if err := root.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/a/x", "/a/sub/y"} {
		if err := root.Create(f, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	over := memfs.New(memfs.Options{})
	if _, err := over.Mkdir(over.Root().ID, "x", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	paths := []string{"/a/x", "/a/sub/y", "/a/sub", "/a/ghost", "/a/sub/ghost", "/a.mv/x", "/a.mv/sub/y", "/b/sub/y", "/b/ghost"}

	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	var phase atomic.Uint64 // odd while a mutation is in flight
	var state atomic.Pointer[renameStormState]
	state.Store(&renameStormState{at: "/a"})
	var stop atomic.Bool
	var checked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		user := w%2 == 1
		task := k.NewTask(cred.Root())
		if user {
			task = k.NewTask(cred.New(1000, 1000, nil, ""))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				before := phase.Load()
				s := state.Load()
				p := paths[i%len(paths)]
				info, err := task.Stat(p)
				// Yield every walk: the mutator waits for judged walks in
				// a Gosched loop, and walkers that never yield starve it.
				runtime.Gosched()
				if before&1 != 0 || phase.Load() != before {
					continue
				}
				checked.Add(1)
				wantErr, wantDir := s.want(p, user)
				if got := fsapi.ToErrno(err); got != wantErr || err == nil && info.Mode.IsDir() != wantDir {
					t.Errorf("walker %d (user %v): %q answered %v (dir %v) with the directory at %s, locked %v, mounted %v; want %v (dir %v)",
						w, user, p, got, info.Mode.IsDir(), s.at, s.locked, s.mounted, wantErr, wantDir)
					stop.Store(true)
				}
			}
		}()
	}
	// step runs one mutation as an odd phase and publishes the tree it
	// leaves before the phase turns stable, then lets the walkers judge a
	// few walks inside it.
	step := func(next renameStormState, mutate func() error) {
		phase.Add(1)
		if err := mutate(); err != nil {
			t.Error(err)
			stop.Store(true)
		}
		state.Store(&next)
		phase.Add(1)
		for n := checked.Load(); !stop.Load() && checked.Load() < n+8; {
			runtime.Gosched()
		}
	}
	rename := func(from, to string) func() error { return func() error { return root.Rename(from, to) } }
	chmod := func(p string, m fsapi.Mode) func() error { return func() error { return root.Chmod(p, m) } }
	home := renameStormState{at: "/a"}
	for i := 0; i < rounds && !stop.Load(); i++ {
		switch i % 5 {
		case 0: // a round trip no walk sees the middle of
			step(home, func() error {
				if err := root.Rename("/a", "/a.mv"); err != nil {
					return err
				}
				return root.Rename("/a.mv", "/a")
			})
		case 1: // a round trip with a stable window, chmods inside it
			step(renameStormState{at: "/a.mv"}, rename("/a", "/a.mv"))
			step(renameStormState{at: "/a.mv", locked: true}, chmod("/a.mv", 0o700))
			step(renameStormState{at: "/a", locked: true}, rename("/a.mv", "/a"))
			step(home, chmod("/a", 0o755))
		case 2: // a permanent move, for a while
			step(renameStormState{at: "/b"}, rename("/a", "/b"))
			step(home, rename("/b", "/a"))
		case 3:
			step(renameStormState{at: "/a", locked: true}, chmod("/a", 0o700))
			step(home, chmod("/a", 0o755))
		case 4:
			if i == 4 {
				step(renameStormState{at: "/a", mounted: true}, func() error { _, err := root.Mount(over, "/a", 0); return err })
				step(home, func() error { return root.Unmount("/a") })
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if checked.Load() == 0 {
		t.Fatal("no walk ever ran inside a stable phase")
	}
	if s := c.k.Stats(); s.KeptUnmoved == 0 {
		t.Fatal("no round trip kept an entry: the storm never exercised re-derivation")
	}
	if r := audit.New(k, c).RunUntilValid(10); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit at quiescence: %s", r.Summary())
	}
}
