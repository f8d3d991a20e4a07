package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/lsm"
	"dircache/internal/memfs"
	"dircache/internal/vfs"
)

// Revocation through a range mark. A permission change on a directory no
// longer visits its cached descendants: it stamps one mark, and every
// memoized prefix check below it stays in its PCC, version still
// matching, until fresh() discards it at the descendant's first probe.
// These tests hold that scheme to the one thing it must guarantee — once
// Chmod/Chown/SetLabel has returned, no credential gets an answer the
// cache-less walk would not give — on every route the fastpath has into
// the subtree.

// revokeRig is one kernel of the differential pair with the tree and the
// tasks the probes use.
type revokeRig struct {
	k     *vfs.Kernel
	c     *Core // nil for the baseline
	root  *vfs.Task
	users []*vfs.Task // two credentials, each with its own PCC, cwd /top
}

func newRevokeRig(t *testing.T, optimized bool) *revokeRig {
	t.Helper()
	r := &revokeRig{k: vfs.NewKernel(vfs.Config{
		DirCompleteness:     optimized,
		AggressiveNegatives: optimized,
	}, memfs.New(memfs.Options{}))}
	if optimized {
		r.c = Install(r.k, Config{Seed: 19, DeepNegatives: true, SymlinkAliases: true})
	}
	// Subjects labelled "web" may use unlabelled objects and nothing
	// else: SetLabel(dir, "vault") revokes, SetLabel(dir, "") restores.
	r.k.LSM().Register(lsm.NewLabelPolicy())
	r.root = r.k.NewTask(cred.Root())
	for _, d := range []string{"/top", "/top/a", "/top/a/b", "/top/a/b/c", "/top/out"} {
		if err := r.root.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/top/a/b/f1", "/top/a/b/c/file"} {
		if err := r.root.Create(f, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.root.Symlink("/top/a/b", "/top/link"); err != nil {
		t.Fatal(err)
	}
	// A second file system mounted inside the subtree: its dentries' parent
	// chain ends at its own root, their canonical path does not.
	if err := r.root.Mkdir("/top/a/b/mnt", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := r.root.Mount(memfs.New(memfs.Options{}), "/top/a/b/mnt", 0); err != nil {
		t.Fatal(err)
	}
	if err := r.root.Create("/top/a/b/mnt/g", 0o644); err != nil {
		t.Fatal(err)
	}
	// /top/a is root:50 0750 and both users are in group 50, so a chown
	// to another group revokes as a chmod does.
	if err := r.root.Chown("/top/a", 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := r.root.Chmod("/top/a", 0o750); err != nil {
		t.Fatal(err)
	}
	for _, uid := range []uint32{1000, 1001} {
		u := r.k.NewTask(cred.New(uid, uid, []uint32{50}, "web"))
		if err := u.Chdir("/top"); err != nil {
			t.Fatal(err)
		}
		r.users = append(r.users, u)
	}
	return r
}

// revokeProbes are the routes into /top/a's subtree, each with what a
// walk answers while /top/a is searchable.
var revokeProbes = []struct {
	path  string
	lstat bool
	want  error
	// kept: the table holds the real dentry under this path's signature and
	// no other route re-signs it, so the entry must outlive a permission
	// change and answer through it (the link routes re-sign b and c).
	kept bool
}{
	{path: "/top/a/b/f1", kept: true},
	{path: "/top/a/b/c/file", kept: true},
	{path: "/top/a/b"},
	{path: "/top/a/b/c/"},
	{path: "a/b/f1", kept: true}, // cwd-relative, cwd outside the subtree
	{path: "out/../a/b/c"},       // ".." on the way in
	{path: "/top/link/f1"},       // through the symlink's alias dentries
	{path: "/top/link/c/file"},
	{path: "/top/link"},
	{path: "/top/a/b/c/../f1"}, // ".." inside the subtree
	{path: "/top/a/b/./c/./file"},
	{path: "/top/link/c/.."}, // cd-style: "." and ".." through an alias
	{path: "/top/link/c/../f1"},
	{path: "/top/link/c/."},
	{path: "/top/link/c/..", lstat: true},
	{path: "/top/a/b/mnt/g"}, // below a mountpoint inside the subtree
	{path: "/top/link/mnt/g"},
	{path: "/top/a/b/mnt/ghost", want: fsapi.ENOENT},
	{path: "/top/a/b/ghost", want: fsapi.ENOENT},           // cached negative
	{path: "/top/a/b/ghost/deeper", want: fsapi.ENOENT},    // deep negative below it
	{path: "/top/link/ghost", want: fsapi.ENOENT},          // negative behind the alias
	{path: "/top/a/b/f1/under", want: fsapi.ENOTDIR},       // ENOTDIR negative
	{path: "a/b/c/ghost/x/y", want: fsapi.ENOENT},          // relative deep negative
	{path: "/top/a/b/c/../../b/ghost", want: fsapi.ENOENT}, // ".." then a negative
}

func probeErrno(u *vfs.Task, path string, lstat bool) fsapi.Errno {
	var err error
	if lstat {
		_, err = u.Lstat(path)
	} else {
		_, err = u.Stat(path)
	}
	return fsapi.ToErrno(err)
}

// TestRevocationThroughRangeMark: differential against the cache-less
// kernel, two revoke/restore rounds per mechanism so the second revocation
// lands on state repopulated after the first.
func TestRevocationThroughRangeMark(t *testing.T) {
	for _, tc := range []struct {
		name            string
		revoke, restore func(root *vfs.Task) error
	}{
		{"chmod",
			func(root *vfs.Task) error { return root.Chmod("/top/a", 0) },
			func(root *vfs.Task) error { return root.Chmod("/top/a", 0o750) }},
		{"chown",
			func(root *vfs.Task) error { return root.Chown("/top/a", 0, 51) },
			func(root *vfs.Task) error { return root.Chown("/top/a", 0, 50) }},
		{"setlabel",
			func(root *vfs.Task) error { return root.SetLabel("/top/a", "vault") },
			func(root *vfs.Task) error { return root.SetLabel("/top/a", "") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, opt := newRevokeRig(t, false), newRevokeRig(t, true)
			// check runs every probe for every user on both kernels; want
			// maps the searchable-state answer to the one expected now.
			check := func(stage string, want func(error) fsapi.Errno) {
				t.Helper()
				for ui := range opt.users {
					for _, p := range revokeProbes {
						b := probeErrno(base.users[ui], p.path, p.lstat)
						o := probeErrno(opt.users[ui], p.path, p.lstat)
						if o != b {
							t.Errorf("%s: user %d %q: optimized %v, baseline %v", stage, ui, p.path, o, b)
						}
						if w := want(p.want); b != w {
							t.Fatalf("%s: user %d %q: baseline answers %v, the test expects %v", stage, ui, p.path, b, w)
						}
					}
				}
			}
			granted := fsapi.ToErrno
			revoked := func(error) fsapi.Errno { return fsapi.EACCES }
			// checkKept holds the kept routes to what the permission class
			// promises, user by user: the table entry is still there and
			// still answers the lookup (no DLHT miss), a revoked credential's
			// prefix re-check fails and its EACCES comes from the slow walk
			// it falls to, a granted one re-hits with no slow walk at all.
			checkKept := func(stage string, isRevoked bool) {
				t.Helper()
				for ui, u := range opt.users {
					for _, p := range revokeProbes {
						if !p.kept {
							continue
						}
						kb, cb := opt.k.Stats(), opt.c.Stats()
						got := probeErrno(u, p.path, p.lstat)
						slow, cs := opt.k.Stats().SlowWalks-kb.SlowWalks, opt.c.Stats()
						wantErr, wantSlow := fsapi.ToErrno(p.want), int64(0)
						if isRevoked {
							wantErr, wantSlow = fsapi.EACCES, 1
						}
						if got != wantErr || slow != wantSlow || cs.DLHTMiss != cb.DLHTMiss || cs.PCCMiss-cb.PCCMiss != wantSlow {
							t.Errorf("%s: user %d %q: %v after %d slow walks, %d DLHT misses, %d PCC misses; want %v after %d, 0, %d",
								stage, ui, p.path, got, slow, cs.DLHTMiss-cb.DLHTMiss, cs.PCCMiss-cb.PCCMiss, wantErr, wantSlow, wantSlow)
						}
					}
				}
				for _, p := range []string{"top/a/b/f1", "top/a/b/c/file"} {
					d := opt.k.RootDentry()
					for _, name := range strings.Split(p, "/") {
						d = d.Child(name)
					}
					fd := fast(d)
					fd.mu.Lock()
					published := fd.inTable != nil && fd.pubSeq == fd.seq.Load()
					fd.mu.Unlock()
					if !published {
						t.Errorf("%s: /%s lost its table entry (or its pubSeq stamp) to a permission change", stage, p)
					}
				}
			}
			for round := 0; round < 2; round++ {
				for i := 0; i < 4; i++ { // past admission, onto the hit path
					check(fmt.Sprintf("round %d warm %d", round, i), granted)
				}
				before := opt.c.Stats()
				for _, r := range []*revokeRig{base, opt} {
					if err := tc.revoke(r.root); err != nil {
						t.Fatal(err)
					}
				}
				if d := opt.c.Stats(); d.BatchShootdowns-before.BatchShootdowns != 1 || d.SeqBumps-before.SeqBumps != 1 {
					t.Fatalf("revocation took %d range marks and %d seq bumps, want 1 and 1",
						d.BatchShootdowns-before.BatchShootdowns, d.SeqBumps-before.SeqBumps)
				}
				if round == 1 {
					// White box, before any probe has discharged the mark:
					// a population that reaches publish with no probe of
					// the dentry before it (no fastpath attempt, a "."
					// so the signature comes from the scan) stamps validGen:
					// it must discharge the mark first, or f1 looks fresh
					// again behind the users' still-matching entries.
					if _, err := opt.root.Walk("/top/a/b/./f1", vfs.WalkNoFast); err != nil {
						t.Fatal(err)
					}
				}
				// Root is not revoked and republishes every route first:
				// a publish stamps validGen, and must discharge the mark
				// (bump seq) before it does, or the users' entries for
				// the republished dentries would stand behind a dentry
				// that looks fresh again.
				for i := 0; i < 2; i++ {
					for _, p := range revokeProbes {
						if b, o := probeErrno(base.root, p.path, p.lstat), probeErrno(opt.root, p.path, p.lstat); b != o {
							t.Errorf("round %d revoked: root %q: optimized %v, baseline %v", round, p.path, o, b)
						}
					}
				}
				check(fmt.Sprintf("round %d revoked", round), revoked)
				checkKept(fmt.Sprintf("round %d revoked", round), true)
				check(fmt.Sprintf("round %d revoked again", round), revoked)
				for _, r := range []*revokeRig{base, opt} {
					if err := tc.restore(r.root); err != nil {
						t.Fatal(err)
					}
				}
				checkKept(fmt.Sprintf("round %d restored", round), false)
			}
			check("restored", granted)
		})
	}
}

// TestAliasDotDotAfterRename: the cd-style path through an alias again,
// with the structural mutation that already took the range mark before
// permission changes did. After the symlink target's ancestor is renamed
// away, "link/sub/.." must answer what the cache-less walk answers.
func TestAliasDotDotAfterRename(t *testing.T) {
	base, opt := newRevokeRig(t, false), newRevokeRig(t, true)
	paths := []string{"/top/link/c/..", "/top/link/c/.", "/top/link/c/../f1", "link/c/.."}
	check := func(stage string) {
		t.Helper()
		for _, p := range paths {
			if b, o := probeErrno(base.users[0], p, false), probeErrno(opt.users[0], p, false); b != o {
				t.Errorf("%s: %q: optimized %v, baseline %v", stage, p, o, b)
			}
		}
	}
	for i := 0; i < 4; i++ {
		check("warm")
	}
	for _, r := range []*revokeRig{base, opt} {
		if err := r.root.Rename("/top/a", "/top/moved"); err != nil {
			t.Fatal(err)
		}
	}
	check("renamed")
	for _, r := range []*revokeRig{base, opt} {
		if err := r.root.Rename("/top/moved", "/top/a"); err != nil {
			t.Fatal(err)
		}
	}
	check("renamed back")
}

// TestAliasDotCheckHonoursRangeMark is the white box under the two tests
// above. The "."/".." check at an alias dentry consults the *target's* PCC
// entry; the walks above never show it trusting a revoked one because
// their final lookup lands in the subtree and falls back anyway. Here the
// alias is what the table holds for /top/link/c, the user's entry for the
// real /top/a/b/c still matches its seq, and the mark on /top/a has been
// discharged by nothing: checkPrefixDir must refuse.
func TestAliasDotCheckHonoursRangeMark(t *testing.T) {
	for name, mutate := range map[string]func(root *vfs.Task) error{
		"chmod":  func(root *vfs.Task) error { return root.Chmod("/top/a", 0) },
		"rename": func(root *vfs.Task) error { return root.Rename("/top/a", "/top/moved") },
	} {
		t.Run(name, func(t *testing.T) {
			r := newRevokeRig(t, true)
			u := r.users[0]
			for i := 0; i < 4; i++ {
				for _, p := range []string{"/top/link/c/file", "/top/a/b/c"} {
					if _, err := u.Stat(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			dl, pcc := r.c.dlhtFor(u.Namespace()), r.c.pccFor(u.Cred())
			var cur pathCursor
			if !cur.init(r.c, u.Root()) {
				t.Fatal("no state for the root")
			}
			for _, comp := range []string{"top", "link", "c"} {
				cur.push(comp)
			}
			idx, sg := cur.st.Sum()
			if d := dl.Lookup(idx, sg); d == nil || d.Flags()&vfs.DAlias == 0 {
				t.Fatalf("the table holds %v for /top/link/c, want its alias dentry", d)
			}
			if !r.c.checkPrefixDir(u, dl, pcc, &cur) {
				t.Fatal("checkPrefixDir at the alias fails before the mutation: the test exercises nothing")
			}
			if err := mutate(r.root); err != nil {
				t.Fatal(err)
			}
			if r.c.checkPrefixDir(u, dl, pcc, &cur) {
				t.Fatal("checkPrefixDir at alias /top/link/c trusted the target's PCC entry under an undischarged range mark")
			}
		})
	}
}

// TestStressWalkVsChmod: eight walkers on two credentials probe the
// subtree while its ancestor alternates between 0750 and 0000. A phase
// counter moves before and after every Chmod call, so a walk that reads
// the same phase on both sides ran entirely inside one stable mode, by
// its own happens-before: inside 0000 it must see EACCES on every route,
// inside 0750 the searchable answer.
func TestStressWalkVsChmod(t *testing.T) {
	r := newRevokeRig(t, true)
	toggles := 400
	if testing.Short() {
		toggles = 60
	}
	const ( // phase & 3
		granted = iota
		revoking
		revoked
		granting
	)
	var phase atomic.Uint64
	var stop atomic.Bool
	var checked [2]atomic.Int64 // walks judged inside a stable granted / revoked phase
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		u := r.k.NewTask(r.users[w%2].Cred())
		if err := u.Chdir("/top"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				p := revokeProbes[i%len(revokeProbes)]
				before := phase.Load()
				got := probeErrno(u, p.path, p.lstat)
				if phase.Load() != before {
					continue
				}
				switch before & 3 {
				case granted:
					checked[0].Add(1)
					if want := fsapi.ToErrno(p.want); got != want {
						t.Errorf("walker %d: %q answered %v while the mode was 0750 throughout, want %v", w, p.path, got, want)
						stop.Store(true)
					}
				case revoked:
					checked[1].Add(1)
					if got != fsapi.EACCES {
						t.Errorf("walker %d: %q answered %v while the mode was 0000 throughout, want EACCES", w, p.path, got)
						stop.Store(true)
					}
				}
			}
		}()
	}
	for i := 0; i < toggles && !stop.Load(); i++ {
		for _, mode := range []fsapi.Mode{0, 0o750} {
			phase.Add(1)
			if err := r.root.Chmod("/top/a", mode); err != nil {
				t.Error(err)
			}
			phase.Add(1)
			// Let walkers run inside the stable phase: several probes each.
			for n := checked[0].Load() + checked[1].Load(); !stop.Load() && checked[0].Load()+checked[1].Load() < n+16; {
				runtime.Gosched()
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if checked[0].Load() == 0 || checked[1].Load() == 0 {
		t.Fatalf("judged %d granted and %d revoked walks: the storm never overlapped a stable phase", checked[0].Load(), checked[1].Load())
	}
	if s := r.c.Stats(); s.LazyShootdowns == 0 {
		t.Fatal("no walker ever discharged a range mark")
	}
}
