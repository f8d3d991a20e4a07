package core

import (
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/vfs"
)

// The prefix re-check: a PCC miss on a table hit is answered by climbing
// the dentry's ancestors instead of re-walking the path. These tests hold
// the climb to the two things a walk would have got right by construction:
// it checks the same directories (a mount crossed on the way up included),
// and a permission change that lands behind it is never outrun.

// recheckRig is /top/a/b/f and a second file system mounted at /top/a/mnt
// holding g, with an unprivileged user for whom everything is searchable.
type recheckRig struct {
	k    *vfs.Kernel
	c    *Core
	gate *permGate
	root *vfs.Task
	user *vfs.Task
}

func newRecheckRig(t *testing.T) *recheckRig {
	t.Helper()
	r := &recheckRig{k: vfs.NewKernel(vfs.Config{DirCompleteness: true, AggressiveNegatives: true}, memfs.New(memfs.Options{})), gate: &permGate{}}
	r.c = Install(r.k, Config{Seed: 23})
	r.k.LSM().Register(r.gate)
	r.root = r.k.NewTask(cred.Root())
	for _, d := range []string{"/top", "/top/a", "/top/a/b", "/top/a/mnt"} {
		if err := r.root.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.root.Mount(memfs.New(memfs.Options{}), "/top/a/mnt", 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"/top/a/b/f", "/top/a/mnt/g"} {
		if err := r.root.Create(f, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r.user = r.k.NewTask(cred.New(1000, 1000, nil, ""))
	return r
}

// probe stats path as the user and reports the errno with what the walk
// cost: slow walks, DLHT misses, PCC misses that fell through.
func (r *recheckRig) probe(path string) (errno fsapi.Errno, slow, dlhtMiss, pccMiss int64) {
	kb, cb := r.k.Stats(), r.c.Stats()
	_, err := r.user.Stat(path)
	ka, ca := r.k.Stats(), r.c.Stats()
	return fsapi.ToErrno(err), ka.SlowWalks - kb.SlowWalks, ca.DLHTMiss - cb.DLHTMiss, ca.PCCMiss - cb.PCCMiss
}

func (r *recheckRig) chmod(t *testing.T, path string, mode fsapi.Mode) {
	t.Helper()
	if err := r.root.Chmod(path, mode); err != nil {
		t.Fatal(err)
	}
}

// TestRecheckCrossesMount: a chmod two levels above a mountpoint revokes
// what is cached below the mount, and both halves of that go through the
// mount: fresh's climb finds the mark from inside the mounted tree, and the
// prefix re-check reaches the changed directory from there — refusing while
// it is 0700 (the EACCES is the slow walk's), re-admitting the user with no
// slow walk once it is 0755 again. The routes cover the re-check's three
// sites: the final dentry, a negative, and the "." check at the mounted root.
func TestRecheckCrossesMount(t *testing.T) {
	r := newRecheckRig(t)
	routes := []struct {
		path string
		want fsapi.Errno
	}{
		{"/top/a/mnt", 0}, // the mounted root itself; publishes what "." looks up
		{"/top/a/mnt/g", 0},
		{"/top/a/mnt/ghost", fsapi.ENOENT},
		{"/top/a/mnt/./g", 0},
	}
	for i := 0; i < 4; i++ { // past admission, onto the hit path
		for _, p := range routes {
			if got, _, _, _ := r.probe(p.path); got != p.want {
				t.Fatalf("warm: %q answered %v, want %v", p.path, got, p.want)
			}
		}
	}
	for _, p := range routes {
		if got, slow, _, _ := r.probe(p.path); got != p.want || slow != 0 {
			t.Fatalf("warm: %q answered %v after %d slow walks: the test exercises nothing", p.path, got, slow)
		}
	}
	for round := 0; round < 2; round++ {
		r.chmod(t, "/top", 0o700)
		for pass := 0; pass < 2; pass++ {
			for _, p := range routes {
				// The entry outlived the chmod (no DLHT miss), the re-check
				// across the mount refused (one PCC miss fell through), and
				// the slow walk it fell to said EACCES.
				if got, slow, dm, pm := r.probe(p.path); got != fsapi.EACCES || slow != 1 || dm != 0 || pm != 1 {
					t.Errorf("round %d /top 0700, pass %d: %q answered %v after %d slow walks, %d DLHT misses, %d PCC misses; want EACCES after 1, 0, 1",
						round, pass, p.path, got, slow, dm, pm)
				}
			}
		}
		r.chmod(t, "/top", 0o755)
		for pass := 0; pass < 2; pass++ {
			for _, p := range routes {
				if got, slow, dm, pm := r.probe(p.path); got != p.want || slow != 0 || dm != 0 || pm != 0 {
					t.Errorf("round %d /top 0755, pass %d: %q answered %v after %d slow walks, %d DLHT misses, %d PCC misses; want %v after 0, 0, 0",
						round, pass, p.path, got, slow, dm, pm, p.want)
				}
			}
		}
	}
}

// TestRecheckRefusesChmodBehindClimb puts a whole chmod 000 between the
// climb's check of a directory and its insert. The user's PCC entry for
// /top/a/b/f is stale (a harmless chmod of b bumped it), so the stat
// re-checks the prefix bottom-up: b, a, top, the root. The gate fires inside
// the check of /top — b has been checked and passed — and revokes b. The
// climb goes on to succeed on what it read; only the token re-check after it
// knows better. Nothing may be inserted and nothing answered: the walk falls
// to the slow path and the user gets EACCES. With that re-check removed this
// stat succeeds and leaves an entry that keeps succeeding.
func TestRecheckRefusesChmodBehindClimb(t *testing.T) {
	r := newRecheckRig(t)
	for i := 0; i < 4; i++ {
		if got, _, _, _ := r.probe("/top/a/b/f"); got != 0 {
			t.Fatalf("warm: %v", got)
		}
	}
	f, err := r.root.Walk("/top/a/b/f", 0)
	if err != nil {
		t.Fatal(err)
	}
	top, err := r.root.Walk("/top", 0)
	if err != nil {
		t.Fatal(err)
	}
	pcc := r.c.pccFor(r.user.Cred())

	// Control: the same stale entry with nothing landing behind the climb is
	// re-checked in place and memoized.
	r.chmod(t, "/top/a/b", 0o755)
	if got, slow, dm, pm := r.probe("/top/a/b/f"); got != 0 || slow != 0 || dm != 0 || pm != 0 || !pcc.Lookup(f.D.ID(), dentrySeq(f.D)) {
		t.Fatalf("control: %v after %d slow walks, %d DLHT misses, %d PCC misses (entry memoized: %v); want success after 0, 0, 0 and an entry",
			got, slow, dm, pm, pcc.Lookup(f.D.ID(), dentrySeq(f.D)))
	}

	r.chmod(t, "/top/a/b", 0o755)
	fired := false
	*r.gate = permGate{on: top.D.Inode().ID(), uid: 1000, armed: true, fire: func() {
		fired = true
		r.chmod(t, "/top/a/b", 0)
	}}
	got, slow, dm, pm := r.probe("/top/a/b/f")
	if !fired {
		t.Fatal("the gate never fired: the stat did not climb through /top")
	}
	if got != fsapi.EACCES || slow != 1 || dm != 0 || pm != 1 {
		t.Errorf("chmod 000 behind the climb: %v after %d slow walks, %d DLHT misses, %d PCC misses; want EACCES after 1, 0, 1", got, slow, dm, pm)
	}
	if pcc.Lookup(f.D.ID(), dentrySeq(f.D)) {
		t.Error("the climb memoized a prefix check a chmod 000 had already revoked")
	}
	for i := 0; i < 2; i++ {
		if got, _, _, _ := r.probe("/top/a/b/f"); got != fsapi.EACCES {
			t.Errorf("stat %d after the revocation: %v, want EACCES", i, got)
		}
	}
}

// statDuringMutation is a delegating Hooks: armed, it runs fire once, right
// after the real BeginMutation has shot down and bumped the epoch and before
// the kernel applies the change — a walk landing inside the bracket.
type statDuringMutation struct {
	*Core
	fire func()
}

func (h *statDuringMutation) BeginMutation(d *vfs.Dentry, why vfs.Invalidation) vfs.Mutation {
	m := h.Core.BeginMutation(d, why)
	if fire := h.fire; fire != nil {
		h.fire = nil
		fire()
	}
	return m
}

// TestOverlappingMutationKeepsPermissionFresh: a chmod 000 of /top/a/b runs
// while an unrelated mutation of /top/a/mnt is still open, and the user
// stats /top/a/b/f inside the chmod's bracket, before the mode changes. Two
// open brackets once left the epoch even, so that stat re-checked the
// prefix against the old mode and memoized it, and every later stat
// answered success from the PCC with no slow walk. Two mutations in flight
// must read as in flight: the stat inside may succeed — it is ordered
// before the chmod — but caches nothing, and the stats after it get EACCES.
func TestOverlappingMutationKeepsPermissionFresh(t *testing.T) {
	r := newRecheckRig(t)
	for i := 0; i < 4; i++ {
		if got, _, _, _ := r.probe("/top/a/b/f"); got != 0 {
			t.Fatalf("warm: %v", got)
		}
	}
	if got, slow, _, _ := r.probe("/top/a/b/f"); got != 0 || slow != 0 {
		t.Fatalf("warm: %v after %d slow walks: the test exercises nothing", got, slow)
	}
	mnt, err := r.root.Walk("/top/a/mnt", vfs.WalkNoFollow)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	r.k.SetHooks(&statDuringMutation{Core: r.c, fire: func() {
		fired = true
		if got, _, _, _ := r.probe("/top/a/b/f"); got != 0 {
			t.Errorf("stat inside the chmod's bracket: %v, want success (the mode has not changed yet)", got)
		}
	}})
	unrelated := r.c.BeginMutation(mnt.D, vfs.InvalPerm)
	r.chmod(t, "/top/a/b", 0)
	unrelated.End()
	if !fired {
		t.Fatal("the delegating hooks never ran the stat")
	}
	for i := 0; i < 2; i++ {
		if got, slow, _, _ := r.probe("/top/a/b/f"); got != fsapi.EACCES || slow != 1 {
			t.Errorf("stat %d after chmod 000: %v after %d slow walks, want EACCES after 1", i, got, slow)
		}
	}
}

// TestTokenValidAcrossBrackets: a slow walk's token is good only while no
// mutation is in flight, however many brackets overlap.
func TestTokenValidAcrossBrackets(t *testing.T) {
	_, c, root := optimized(t)
	ref, err := root.Walk("/home", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name         string
		begins, ends int
		valid        bool
	}{
		{"none open", 0, 0, true},
		{"one open", 1, 0, false},
		{"two open", 2, 0, false},
		{"two opened, one closed", 2, 1, false},
		{"two opened and closed", 2, 2, true},
	} {
		var open []vfs.Mutation
		for i := 0; i < row.begins; i++ {
			open = append(open, c.BeginMutation(ref.D, vfs.InvalPerm))
		}
		for i := 0; i < row.ends; i++ {
			open[i].End()
		}
		if got := c.tokenValid(c.BeginSlow()); got != row.valid {
			t.Errorf("%s: tokenValid(BeginSlow()) = %v, want %v", row.name, got, row.valid)
		}
		for _, m := range open[row.ends:] {
			m.End()
		}
	}
}
