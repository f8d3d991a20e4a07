package dircache_test

import (
	"errors"
	"fmt"
	"testing"

	"dircache"
)

func TestQuickstartFlow(t *testing.T) {
	for _, cfg := range []struct {
		name string
		c    dircache.Config
	}{
		{"baseline", dircache.Baseline()},
		{"optimized", dircache.Optimized()},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			sys := dircache.New(cfg.c)
			p := sys.Start(dircache.RootCreds())
			if err := p.MkdirAll("/home/alice/docs", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := p.WriteFile("/home/alice/docs/hi.txt", []byte("hello world"), 0o644); err != nil {
				t.Fatal(err)
			}
			data, err := p.ReadFile("/home/alice/docs/hi.txt")
			if err != nil || string(data) != "hello world" {
				t.Fatalf("read back %q %v", data, err)
			}
			info, err := p.Stat("/home/alice/docs/hi.txt")
			if err != nil || info.Size != 11 || info.Type != dircache.TypeRegular {
				t.Fatalf("stat %+v %v", info, err)
			}
			ents, err := p.ReadDir("/home/alice/docs")
			if err != nil || len(ents) != 1 || ents[0].Name != "hi.txt" {
				t.Fatalf("readdir %v %v", ents, err)
			}
			if _, err := p.Stat("/nope"); !errors.Is(err, dircache.ErrNotExist) {
				t.Fatalf("sentinel mismatch: %v", err)
			}
		})
	}
}

func TestPublicErrorSentinels(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	root := sys.Start(dircache.RootCreds())
	root.Mkdir("/d", 0o700)
	root.Create("/d/f", 0o600)

	user := sys.Start(dircache.UserCreds(1000))
	if _, err := user.Stat("/d/f"); !errors.Is(err, dircache.ErrPermission) {
		t.Fatalf("want ErrPermission, got %v", err)
	}
	if err := root.Rmdir("/d"); !errors.Is(err, dircache.ErrNotEmpty) {
		t.Fatalf("want ErrNotEmpty, got %v", err)
	}
	if err := root.Unlink("/d"); !errors.Is(err, dircache.ErrIsDir) {
		t.Fatalf("want ErrIsDir, got %v", err)
	}
	if _, err := root.Stat("/d/f/x"); !errors.Is(err, dircache.ErrNotDir) {
		t.Fatalf("want ErrNotDir, got %v", err)
	}
	if got := dircache.Errno(dircache.ErrNotExist); got != 2 {
		t.Fatalf("Errno(ENOENT) = %d", got)
	}
}

func TestStatsSurface(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	p := sys.Start(dircache.RootCreds())
	p.MkdirAll("/x/y", 0o755)
	p.WriteFile("/x/y/z", nil, 0o644)
	for i := 0; i < 10; i++ {
		p.Stat("/x/y/z")
	}
	st := sys.Stats()
	if st.Lookups == 0 || st.FastHits == 0 {
		t.Fatalf("stats not accumulating: %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() > 1 {
		t.Fatalf("hit rate %v", st.HitRate())
	}
	if sys.DentryCount() == 0 {
		t.Fatal("no dentries cached")
	}
	empty, one, two, more := sys.BucketStats()
	if empty+one+two+more == 0 {
		t.Fatal("bucket stats empty")
	}
}

func TestDiskBackendThroughAPI(t *testing.T) {
	be, err := dircache.NewDiskBackend(dircache.DiskOptions{
		Blocks: 4096, Slow: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := dircache.New(dircache.Config{Features: dircache.AllFeatures(), Root: be})
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll("/var/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/var/data/blob", make([]byte, 10000), 0o644); err != nil {
		t.Fatal(err)
	}
	// Cold-cache accounting: dropping both caches makes the next stat
	// charge simulated I/O.
	sys.DropCaches()
	if err := be.InvalidateBufferCache(); err != nil {
		t.Fatal(err)
	}
	be.ResetSimulatedIO()
	if _, err := p.Stat("/var/data/blob"); err != nil {
		t.Fatal(err)
	}
	if be.SimulatedIONanos() == 0 {
		t.Fatal("cold stat charged no simulated I/O")
	}
	reads, _, _ := be.DeviceStats()
	if reads == 0 {
		t.Fatal("no device reads recorded")
	}
	// Warm: no further charge.
	be.ResetSimulatedIO()
	if _, err := p.Stat("/var/data/blob"); err != nil {
		t.Fatal(err)
	}
	if be.SimulatedIONanos() != 0 {
		t.Fatal("warm stat charged simulated I/O")
	}
}

func TestProcBackendThroughAPI(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	p := sys.Start(dircache.RootCreds())
	p.Mkdir("/proc", 0o555)
	if err := p.Mount(dircache.NewProcBackend(32), "/proc", dircache.MountReadOnly); err != nil {
		t.Fatal(err)
	}
	data, err := p.ReadFile("/proc/7/status")
	if err != nil || len(data) == 0 {
		t.Fatalf("proc read: %q %v", data, err)
	}
	if err := p.Create("/proc/intruder", 0o644); err == nil {
		t.Fatal("wrote to read-only pseudo FS")
	}
	// Negative caching on pseudo FS (optimized only).
	p.Stat("/proc/99")
	before := sys.Stats().FSLookups
	p.Stat("/proc/99")
	if sys.Stats().FSLookups != before {
		// Good: miss served from negative dentry — nothing to assert
		// beyond no FS consultation.
	} else if sys.Stats().FSLookups > before {
		t.Fatal("pseudo-FS negative dentry not cached in optimized mode")
	}
}

func TestLSMThroughAPI(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	policy := dircache.NewLabelPolicy()
	policy.Allow("web", "content", dircache.R_OK|dircache.X_OK)
	sys.RegisterLSM(policy)

	root := sys.Start(dircache.RootCreds())
	root.MkdirAll("/srv/www", 0o755)
	root.WriteFile("/srv/www/index.html", []byte("<html>"), 0o644)
	if err := root.SetLabel("/srv/www/index.html", "content"); err != nil {
		t.Fatal(err)
	}
	root.WriteFile("/srv/www/config", []byte("secret"), 0o644)
	if err := root.SetLabel("/srv/www/config", "system"); err != nil {
		t.Fatal(err)
	}

	web := sys.Start(dircache.Creds{UID: 33, GID: 33, Label: "web"})
	if _, err := web.ReadFile("/srv/www/index.html"); err != nil {
		t.Fatalf("allowed content denied: %v", err)
	}
	if _, err := web.ReadFile("/srv/www/config"); !errors.Is(err, dircache.ErrPermission) {
		t.Fatalf("system-labeled file readable by web: %v", err)
	}
	// Repeat to exercise the PCC memoizing the LSM decision.
	for i := 0; i < 5; i++ {
		if _, err := web.ReadFile("/srv/www/index.html"); err != nil {
			t.Fatal(err)
		}
		if _, err := web.ReadFile("/srv/www/config"); err == nil {
			t.Fatal("denial lost after caching")
		}
	}
}

func TestMkstempThroughAPI(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	p := sys.Start(dircache.RootCreds())
	p.Mkdir("/tmp", 0o777)
	seen := map[string]bool{}
	for i := 0; i < 30; i++ {
		f, name, err := p.Mkstemp("/tmp", "t-")
		if err != nil {
			t.Fatal(err)
		}
		if seen[name] {
			t.Fatalf("duplicate temp name %s", name)
		}
		seen[name] = true
		f.Close()
	}
}

func TestRemoveAllAndMkdirAll(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	p := sys.Start(dircache.RootCreds())
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if err := p.MkdirAll(fmt.Sprintf("/tree/d%d/e%d", i, j), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := p.WriteFile(fmt.Sprintf("/tree/d%d/e%d/f", i, j), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.RemoveAll("/tree"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/tree"); !errors.Is(err, dircache.ErrNotExist) {
		t.Fatalf("tree survives RemoveAll: %v", err)
	}
	if err := p.RemoveAll("/tree"); err != nil {
		t.Fatalf("RemoveAll on absent path: %v", err)
	}
}

func TestForkAndSetCreds(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	root := sys.Start(dircache.RootCreds())
	root.MkdirAll("/home/u", 0o755)
	root.Chown("/home/u", 500, 500)

	p := sys.Start(dircache.UserCreds(500))
	if err := p.Chdir("/home/u"); err != nil {
		t.Fatal(err)
	}
	child := p.Fork()
	defer child.Exit()
	if got := child.Getcwd(); got != "/home/u" {
		t.Fatalf("child cwd %q", got)
	}
	// No-op SetCreds keeps identity (and the shared PCC).
	child.SetCreds(dircache.UserCreds(500))
	if err := child.WriteFile("file", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Stat("/home/u/file"); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseTraceSurface(t *testing.T) {
	sys := dircache.New(dircache.Config{PhaseTrace: true})
	var got int
	sys.SetPhaseSink(func(p dircache.PhaseTimes) {
		if p.Total() < 0 {
			t.Error("negative phase total")
		}
		got++
	})
	p := sys.Start(dircache.RootCreds())
	p.MkdirAll("/a/b/c", 0o755)
	p.Stat("/a/b/c")
	if got == 0 {
		t.Fatal("phase sink never called")
	}
}

// TestPhaseSinkSeesEveryFastHit: the Fig-3 phases must describe every walk
// the fastpath handles, not just positive hits — a negative hit, ENOTDIR
// from a trailing slash on a file, and a path that is the start directory
// itself each reach the sink exactly once.
func TestPhaseSinkSeesEveryFastHit(t *testing.T) {
	cfg := dircache.Optimized()
	cfg.PhaseTrace = true
	sys := dircache.New(cfg)
	var calls int64
	sys.SetPhaseSink(func(p dircache.PhaseTimes) {
		if p.ScanHash <= 0 || p.Finalize <= 0 {
			t.Errorf("sink got an unfinished record: %+v", p)
		}
		calls++
	})
	p := sys.Start(dircache.RootCreds())
	if err := p.MkdirAll("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/a/b/file", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.Chdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	paths := []string{"/a/b/file", "/a/b/ghost", "/a/b/file/", ".", "file", "/a/b/"}
	for i := 0; i < 4; i++ { // past admission: every path fast-hits from here on
		for _, path := range paths {
			p.Stat(path)
		}
	}
	before, callsBefore := sys.Stats(), calls
	for _, path := range paths {
		p.Stat(path)
	}
	d := sys.Stats().Delta(before)
	if d.FastHits != int64(len(paths)) || d.SlowWalks != 0 || d.FastNeg != 1 {
		t.Fatalf("warm pass: %d fast hits (%d negative), %d slow walks; want %d (1), 0", d.FastHits, d.FastNeg, d.SlowWalks, len(paths))
	}
	if got := calls - callsBefore; got != d.FastHits {
		t.Fatalf("phase sink called %d times for %d fastpath hits", got, d.FastHits)
	}
}

func TestNamespaceAPI(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	root := sys.Start(dircache.RootCreds())
	root.Mkdir("/mnt", 0o755)

	other := sys.Start(dircache.RootCreds())
	other.UnshareNamespace()
	if err := other.Mount(dircache.NewMemBackend(dircache.MemOptions{}), "/mnt", 0); err != nil {
		t.Fatal(err)
	}
	other.WriteFile("/mnt/private", []byte("x"), 0o644)
	if _, err := root.Stat("/mnt/private"); !errors.Is(err, dircache.ErrNotExist) {
		t.Fatalf("namespace leak: %v", err)
	}
}

func TestSeededSystemsAreIndependent(t *testing.T) {
	// Two optimized systems must work independently (no shared state).
	a := dircache.New(dircache.Optimized())
	b := dircache.New(dircache.Optimized())
	pa := a.Start(dircache.RootCreds())
	pb := b.Start(dircache.RootCreds())
	pa.WriteFile("/only-in-a", nil, 0o644)
	if _, err := pb.Stat("/only-in-a"); !errors.Is(err, dircache.ErrNotExist) {
		t.Fatalf("cross-system leak: %v", err)
	}
}

func TestRemoteBackendNoFastpath(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	p := sys.Start(dircache.RootCreds())
	p.Mkdir("/net", 0o755)
	be := dircache.NewRemoteBackend(dircache.RemoteOptions{RTTNanos: 500})
	if err := p.Mount(be, "/net", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.MkdirAll("/net/home/user", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/net/home/user/doc", []byte("remote"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Warm remote stats keep costing simulated round trips and never
	// fast-hit (§4.3: stateless protocols must revalidate per component).
	p.Stat("/net/home/user/doc")
	fast0 := sys.Stats().FastHits
	be.ResetSimulatedIO()
	for i := 0; i < 3; i++ {
		if _, err := p.Stat("/net/home/user/doc"); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Stats().FastHits != fast0 {
		t.Fatal("fastpath served a remote path")
	}
	if be.SimulatedIONanos() == 0 {
		t.Fatal("warm remote stats made no round trips")
	}
	// Local paths on the same kernel still fast-hit.
	p.MkdirAll("/local/dir", 0o755)
	p.WriteFile("/local/dir/f", nil, 0o644)
	p.Stat("/local/dir/f")
	p.Stat("/local/dir/f") // second touch: admission control publishes here
	slow := sys.Stats().SlowWalks
	if _, err := p.Stat("/local/dir/f"); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().SlowWalks != slow {
		t.Fatal("local path took the slow path after remote mount")
	}
}

func TestPathLSMThroughAPI(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	pp := dircache.NewPathPolicy()
	pp.Allow("webapp", "/srv/www", dircache.R_OK)
	sys.RegisterPathLSM(pp)

	root := sys.Start(dircache.RootCreds())
	root.MkdirAll("/srv/www", 0o755)
	root.WriteFile("/srv/www/page.html", []byte("<html>"), 0o644)
	root.MkdirAll("/etc", 0o755)
	root.WriteFile("/etc/passwd", []byte("root"), 0o644)

	web := sys.Start(dircache.Creds{UID: 33, GID: 33, Label: "webapp"})
	if _, err := web.ReadFile("/srv/www/page.html"); err != nil {
		t.Fatalf("profiled path denied: %v", err)
	}
	// Outside the profile: denied at open, even though DAC would allow.
	if _, err := web.Open("/etc/passwd", dircache.O_RDONLY, 0); !errors.Is(err, dircache.ErrPermission) {
		t.Fatalf("unprofiled open allowed: %v", err)
	}
	// Writes under the read-only profile prefix are denied too.
	if _, err := web.Open("/srv/www/page.html", dircache.O_WRONLY, 0); !errors.Is(err, dircache.ErrPermission) {
		t.Fatalf("profile write allowed: %v", err)
	}
	// Stat is not pathname-mediated (like AppArmor), only open is.
	if _, err := web.Stat("/etc/passwd"); err != nil {
		t.Fatalf("stat should not be pathname-mediated: %v", err)
	}
	// Repeated allowed opens keep working with the fastpath warm.
	for i := 0; i < 5; i++ {
		if _, err := web.ReadFile("/srv/www/page.html"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenAtThroughMounts(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	p := sys.Start(dircache.RootCreds())
	p.Mkdir("/mnt", 0o755)
	if err := p.Mount(dircache.NewMemBackend(dircache.MemOptions{}), "/mnt", 0); err != nil {
		t.Fatal(err)
	}
	p.MkdirAll("/mnt/data/sub", 0o755)
	p.WriteFile("/mnt/data/sub/file", []byte("via dirfd"), 0o644)

	// A dirfd INSIDE the mount: relative opens must resolve on the
	// mounted fs, not against the root superblock.
	dirf, err := p.Open("/mnt/data", dircache.O_RDONLY|dircache.O_DIRECTORY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dirf.Close()
	f, err := p.OpenAt(dirf, "sub/file", dircache.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("openat inside mount: %v", err)
	}
	buf := make([]byte, 16)
	n, _ := f.Read(buf)
	f.Close()
	if string(buf[:n]) != "via dirfd" {
		t.Fatalf("read %q", buf[:n])
	}
	// O_CREAT relative to the dirfd lands on the mounted fs.
	nf, err := p.OpenAt(dirf, "sub/new", dircache.O_CREAT|dircache.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	nf.Close()
	if _, err := p.Stat("/mnt/data/sub/new"); err != nil {
		t.Fatalf("created file not on mounted fs: %v", err)
	}
	// Absolute path ignores the dirfd.
	p.WriteFile("/rootfile", []byte("r"), 0o644)
	af, err := p.OpenAt(dirf, "/rootfile", dircache.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	af.Close()
	// Non-directory dirfd refused.
	ff, _ := p.Open("/rootfile", dircache.O_RDONLY, 0)
	defer ff.Close()
	if _, err := p.OpenAt(ff, "x", dircache.O_RDONLY, 0); !errors.Is(err, dircache.ErrNotDir) {
		t.Fatalf("openat at file dirfd: %v", err)
	}
}
