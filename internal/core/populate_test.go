package core

import (
	"errors"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/vfs"
)

// admission builds an optimized kernel with an explicit AdmitAfter and the
// standard test tree (admitAfter = 0 selects the production default of 2).
func admission(t *testing.T, admitAfter int) (*vfs.Kernel, *Core, *vfs.Task) {
	t.Helper()
	k := vfs.NewKernel(vfs.Config{
		DirCompleteness:     true,
		AggressiveNegatives: true,
	}, memfs.New(memfs.Options{}))
	c := Install(k, Config{
		Seed:           54321,
		DeepNegatives:  true,
		SymlinkAliases: true,
		AdmitAfter:     admitAfter,
	})
	root := k.NewTask(cred.Root())
	buildTree(t, root)
	return k, c, root
}

func TestAdmissionDefersFirstTouch(t *testing.T) {
	k, c, root := admission(t, 0) // default AdmitAfter == 2
	const p = "/usr/include/sys/types.h"

	s0, k0 := c.Stats(), k.Stats()
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	d1 := c.Stats()
	if d1.Deferred-s0.Deferred != 1 {
		t.Fatalf("first touch should defer exactly once, got %d", d1.Deferred-s0.Deferred)
	}
	if d1.Populations != s0.Populations {
		t.Fatal("deferred touch still populated the DLHT")
	}

	// A deferred entry must never serve a fastpath hit: the second stat
	// walks slowly again (and is the admitting touch).
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	d2, k2 := c.Stats(), k.Stats()
	if k2.SlowWalks-k0.SlowWalks != 2 {
		t.Fatalf("expected two slow walks, got %d", k2.SlowWalks-k0.SlowWalks)
	}
	if d2.Hits != s0.Hits {
		t.Fatal("fastpath hit served before admission")
	}
	if d2.Admitted-s0.Admitted != 1 {
		t.Fatalf("second touch should admit, got %d admissions", d2.Admitted-s0.Admitted)
	}
	if d2.Populations == s0.Populations {
		t.Fatal("admitting touch did not populate")
	}

	// Third stat rides the fastpath.
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != k2.SlowWalks {
		t.Fatal("post-admission stat took the slow path")
	}
	if c.Stats().Hits == d2.Hits {
		t.Fatal("post-admission stat did not fast-hit")
	}
}

func TestAdmissionAfterThree(t *testing.T) {
	k, c, root := admission(t, 3)
	// A fresh file: buildTree's own walks must not pre-touch it.
	if err := root.Mkdir("/t3", 0o755); err != nil {
		t.Fatal(err)
	}
	const p = "/t3/f"
	if err := root.Create(p, 0o644); err != nil {
		t.Fatal(err)
	}

	s0, k0 := c.Stats(), k.Stats()
	for i := 0; i < 3; i++ {
		if _, err := root.Stat(p); err != nil {
			t.Fatal(err)
		}
	}
	d := c.Stats()
	if got := d.Deferred - s0.Deferred; got != 2 {
		t.Fatalf("AdmitAfter=3: want 2 deferrals, got %d", got)
	}
	if got := d.Admitted - s0.Admitted; got != 1 {
		t.Fatalf("AdmitAfter=3: want 1 admission, got %d", got)
	}
	if got := k.Stats().SlowWalks - k0.SlowWalks; got != 3 {
		t.Fatalf("want 3 slow walks before admission, got %d", got)
	}
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks-k0.SlowWalks != 3 {
		t.Fatal("fourth stat took the slow path")
	}
}

func TestAdmissionRecycleResetsTouches(t *testing.T) {
	_, _, root := admission(t, 0)
	if err := root.Mkdir("/r", 0o755); err != nil {
		t.Fatal(err)
	}
	const p = "/r/f"
	if err := root.Create(p, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	ref, err := root.Walk("/r", 0)
	if err != nil {
		t.Fatal(err)
	}
	d := ref.D.Child("f")
	if d == nil {
		t.Fatal("no cached dentry for /r/f")
	}
	if got := fast(d).touches.Load(); got == 0 {
		t.Fatal("stat did not touch the dentry")
	}
	// Unlink recycles the dentry into a negative in place
	// (AggressiveNegatives); the identity flip must reset the touch count
	// so the new identity earns admission from scratch.
	if err := root.Unlink(p); err != nil {
		t.Fatal(err)
	}
	if !d.IsNegative() {
		t.Fatal("unlink did not recycle the dentry to a negative")
	}
	if got := fast(d).touches.Load(); got != 0 {
		t.Fatalf("negative recycle kept %d touches", got)
	}
	// Positivize (re-create at the same path) is the other identity flip.
	fast(d).touches.Store(5)
	if err := root.Create(p, 0o644); err != nil {
		t.Fatal(err)
	}
	if d.IsNegative() {
		t.Fatal("create did not positivize the cached negative")
	}
	if got := fast(d).touches.Load(); got != 0 {
		t.Fatalf("positivize kept %d touches", got)
	}
}

func TestAdmissionDeepNegativeChain(t *testing.T) {
	k, c, root := admission(t, 0)
	if err := root.Mkdir("/dn", 0o755); err != nil {
		t.Fatal(err)
	}
	const p = "/dn/a/b/c"
	// The anchor (/dn) is the admission subject for negative population:
	// first ENOENT defers, second grows the deep-negative chain.
	s0 := c.Stats()
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT, got %v", err)
	}
	if d := c.Stats(); d.DeepNegCreated != s0.DeepNegCreated {
		t.Fatal("deferred ENOENT still created deep negatives")
	}
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT, got %v", err)
	}
	if d := c.Stats(); d.DeepNegCreated-s0.DeepNegCreated != 3 {
		t.Fatalf("want a 3-deep negative chain, got %d", d.DeepNegCreated-s0.DeepNegCreated)
	}
	slow := k.Stats().SlowWalks
	if _, err := root.Stat(p); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT, got %v", err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("deep negative chain did not serve the fastpath")
	}
}

func TestLexicalHashDotDot(t *testing.T) {
	k, _, root := optimized(t)
	const p = "/usr/include/../include/sys/../sys/types.h"
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	n, err := root.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("warm dot-dot stat took the slow path")
	}
	plain, err := root.Stat("/usr/include/sys/types.h")
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != plain.ID {
		t.Fatal("lexical and plain paths disagree")
	}
}

func TestLexicalHashDotDotAcrossMount(t *testing.T) {
	k, _, root := optimized(t)
	if err := root.Mkdir("/m", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewTask(cred.Root()).BindMount("/usr", "/m", 0); err != nil {
		t.Fatal(err)
	}
	// ".." out of a bind mount's root must fold back into the mountpoint's
	// parent, both during population and on the warm fastpath.
	const p = "/m/../usr/include/sys/types.h"
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	slow := k.Stats().SlowWalks
	if _, err := root.Stat(p); err != nil {
		t.Fatal(err)
	}
	if k.Stats().SlowWalks != slow {
		t.Fatal("warm cross-mount dot-dot stat took the slow path")
	}
}

func TestAdvanceCursorCrossesMounts(t *testing.T) {
	k, c, root := optimized(t)
	if err := root.Mkdir("/mnt", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewTask(cred.Root()).BindMount("/usr", "/mnt", 0); err != nil {
		t.Fatal(err)
	}
	want, err := root.Walk("/mnt", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := c.advanceCursor(root.Namespace(), root.Root(), "mnt")
	if got.D != want.D || got.Mnt != want.Mnt {
		t.Fatalf("advanceCursor did not cross the bind mount: got %v want %v", got, want)
	}
	if got.Mnt == root.Root().Mnt {
		t.Fatal("cursor stayed in the parent mount")
	}
	// Unknown names and nil cursors collapse to the zero ref (population
	// then simply skips opportunistic publishes).
	if r := c.advanceCursor(root.Namespace(), root.Root(), "no-such-entry"); r.D != nil {
		t.Fatal("unknown component should clear the cursor")
	}
	if r := c.advanceCursor(root.Namespace(), vfs.PathRef{}, "usr"); r.D != nil {
		t.Fatal("nil cursor should stay nil")
	}
}

func TestHasDotComponents(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"", false},
		{"a/b/c", false},
		{".", true},
		{"..", true},
		{"./a", true},
		{"../a", true},
		{"a/.", true},
		{"a/..", true},
		{"a/./b", true},
		{"a/../b", true},
		{"a/.b", false},
		{"a/..b", false},
		{"a..b/c", false},
		{"a./b", false},
		{"...", false},
		{"a/...", false},
	}
	for _, tc := range cases {
		if got := hasDotComponents(tc.path); got != tc.want {
			t.Errorf("hasDotComponents(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}
