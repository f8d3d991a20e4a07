package core

import (
	"fmt"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/telemetry"
	"dircache/internal/vfs"
)

// A fastpath miss on a path whose directory the DLHT and the PCC hold
// hands that directory to the slow walk (vfs.Resume), which then walks
// only the last component. These tests hold the hand-off to the full
// walk's answers: a rename or a chmod that lands between the hand-off and
// the suffix walk, the work a resumed walk does, and the path shapes that
// must answer as the cache-less kernel does.

// resumeWindow is a delegating Hooks: armed, it runs fire once, right
// after the real TryFast has handed a directory over and before the slow
// walk resumes there.
type resumeWindow struct {
	*Core
	fire func()
}

func (h *resumeWindow) TryFast(t *vfs.Task, start vfs.PathRef, path string, fl vfs.WalkFlags, tr *telemetry.WalkTrace) (vfs.PathRef, error, bool, vfs.Resume) {
	res, err, handled, rs := h.Core.TryFast(t, start, path, fl, tr)
	if fire := h.fire; fire != nil && rs.Parent.D != nil {
		h.fire = nil
		fire()
	}
	return res, err, handled, rs
}

// newResumeRig is the recheck rig (/top/a/b/f) with /top/a/b warm for the
// user — published and memoized — and f not yet in the DLHT: the user's
// next stat of /top/a/b/f misses and resumes at /top/a/b.
func newResumeRig(t *testing.T) *recheckRig {
	t.Helper()
	r := newRecheckRig(t)
	for i := 0; i < 3; i++ {
		if got, _, _, _ := r.probe("/top/a/b"); got != 0 {
			t.Fatalf("warming /top/a/b: %v", got)
		}
	}
	if got, slow, _, _ := r.probe("/top/a/b"); got != 0 || slow != 0 {
		t.Fatalf("/top/a/b answered %v after %d slow walks: the parent is not warm", got, slow)
	}
	return r
}

// arm installs a resumeWindow that runs fire and reports whether it ran.
func arm(r *recheckRig, fire func()) *bool {
	fired := new(bool)
	r.k.SetHooks(&resumeWindow{Core: r.c, fire: func() {
		*fired = true
		fire()
	}})
	return fired
}

// TestResumeRenameInWindow: an ancestor of the handed-over directory is
// renamed before the suffix walk runs. The suffix walk still finds f under
// the moved directory, but the rename seq moved, so its answer is dropped
// (one retry) and the full walk from the root answers for the tree as it
// now is: /top/a/b/f is gone, /top/moved/b/f is there.
func TestResumeRenameInWindow(t *testing.T) {
	r := newResumeRig(t)
	var inWindow vfs.Stats // what the rename itself counted
	fired := arm(r, func() {
		before := r.k.Stats()
		if err := r.root.Rename("/top/a", "/top/moved"); err != nil {
			t.Fatal(err)
		}
		inWindow = r.k.Stats().Delta(before)
	})
	before := r.k.Stats()
	got, _, _, _ := r.probe("/top/a/b/f")
	d := r.k.Stats().Delta(before).Delta(inWindow)
	if !*fired {
		t.Fatal("the walk never resumed: the test exercises nothing")
	}
	if got != fsapi.ENOENT {
		t.Errorf("stat /top/a/b/f after /top/a moved: %v, want ENOENT", got)
	}
	if d.RetryWalks != 1 || d.ResumedWalks != 0 || d.SlowWalks != 1 {
		t.Errorf("%d retries, %d resumed walks, %d slow walks; want 1, 0, 1", d.RetryWalks, d.ResumedWalks, d.SlowWalks)
	}
	if got, _, _, _ := r.probe("/top/moved/b/f"); got != 0 {
		t.Errorf("stat /top/moved/b/f: %v, want success", got)
	}
}

// TestResumeChmodInWindow: the user's grandparent /top/a goes to 0000
// between the hand-off and the suffix walk. The resumed walk is ordered
// before the chmod and may succeed, but its token is stale, so it caches
// nothing (one stale token), and the user's next stats are EACCES from
// slow walks: no PCC entry was made from it.
func TestResumeChmodInWindow(t *testing.T) {
	r := newResumeRig(t)
	var inWindow vfs.Stats
	fired := arm(r, func() {
		before := r.k.Stats()
		r.chmod(t, "/top/a", 0)
		inWindow = r.k.Stats().Delta(before)
	})
	before := r.k.Stats()
	got, _, _, _ := r.probe("/top/a/b/f")
	d := r.k.Stats().Delta(before).Delta(inWindow)
	if !*fired {
		t.Fatal("the walk never resumed: the test exercises nothing")
	}
	if got != 0 {
		t.Errorf("stat inside the window: %v, want success (the resume was authorized before the chmod)", got)
	}
	if d.ResumedWalks != 1 || d.StaleTokens != 1 || d.Populations != 0 {
		t.Errorf("%d resumed walks, %d stale tokens, %d populations; want 1, 1, 0", d.ResumedWalks, d.StaleTokens, d.Populations)
	}
	for i := 0; i < 3; i++ {
		if got, slow, _, _ := r.probe("/top/a/b/f"); got != fsapi.EACCES || slow != 1 {
			t.Errorf("stat %d after chmod 000: %v after %d slow walks, want EACCES after 1", i, got, slow)
		}
	}
}

// TestResumeWalksOneComponent: a cold stat eight components deep whose
// directory is warm resolves one component with one backend Lookup, and
// populates under the original path: the next stats hit.
func TestResumeWalksOneComponent(t *testing.T) {
	k := vfs.NewKernel(vfs.Config{DirCompleteness: true, AggressiveNegatives: true}, memfs.New(memfs.Options{}))
	Install(k, Config{Seed: 5})
	root := k.NewTask(cred.Root())
	const dir = "/d1/d2/d3/d4/d5/d6/d7"
	if err := mkdirAll(root, dir); err != nil {
		t.Fatal(err)
	}
	if err := root.Create(dir+"/f", 0o644); err != nil {
		t.Fatal(err)
	}
	k.DropCaches()
	for i := 0; i < 3; i++ {
		if _, err := root.Stat(dir); err != nil {
			t.Fatal(err)
		}
	}
	stat := func() vfs.Stats {
		t.Helper()
		before := k.Stats()
		if _, err := root.Stat(dir + "/f"); err != nil {
			t.Fatal(err)
		}
		return k.Stats().Delta(before)
	}
	if d := stat(); d.Components != 1 || d.FSLookups != 1 || d.ResumedWalks != 1 || d.SlowWalks != 1 {
		t.Errorf("cold stat under a warm directory: %d components, %d backend lookups, %d resumed of %d slow walks; want 1, 1, 1 of 1",
			d.Components, d.FSLookups, d.ResumedWalks, d.SlowWalks)
	}
	if d := stat(); d.Components != 1 || d.FSLookups != 0 || d.ResumedWalks != 1 || d.Populations != 1 {
		t.Errorf("second stat (admitted): %d components, %d backend lookups, %d resumed walks, %d populations; want 1, 0, 1, 1",
			d.Components, d.FSLookups, d.ResumedWalks, d.Populations)
	}
	if d := stat(); d.FastHits != 1 || d.SlowWalks != 0 {
		t.Errorf("third stat: %d fastpath hits, %d slow walks; want 1, 0 (populated under the original path)", d.FastHits, d.SlowWalks)
	}
}

func mkdirAll(t *vfs.Task, path string) error {
	for i := 1; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			if err := t.Mkdir(path[:i], 0o755); err != nil && fsapi.ToErrno(err) != fsapi.EEXIST {
				return err
			}
		}
	}
	return nil
}

// TestResumeAnswersAsBaseline: the path shapes around the resume answer as
// the cache-less kernel does, cold and warm. Each case's last component is
// new when it runs, so its first walk misses the DLHT; resumed says whether
// that walk must resume (the directory is a published, memoized directory
// reached without a symlink, and the name is an ordinary one) or must not.
func TestResumeAnswersAsBaseline(t *testing.T) {
	type side struct {
		k    *vfs.Kernel
		root *vfs.Task
		user *vfs.Task
	}
	mk := func(optimized bool) *side {
		k := vfs.NewKernel(vfs.Config{DirCompleteness: optimized, AggressiveNegatives: optimized}, memfs.New(memfs.Options{}))
		if optimized {
			Install(k, Config{Seed: 9, DeepNegatives: true, SymlinkAliases: true})
		}
		return &side{k: k, root: k.NewTask(cred.Root()), user: k.NewTask(cred.New(1000, 1000, nil, ""))}
	}
	base, opt := mk(false), mk(true)
	both := func(f func(s *side) error) {
		t.Helper()
		for _, s := range []*side{base, opt} {
			if err := f(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	both(func(s *side) error {
		if err := mkdirAll(s.root, "/a/b/c/sub"); err != nil {
			return err
		}
		if err := s.root.Mkdir("/bind", 0o755); err != nil {
			return err
		}
		return s.root.Symlink("c", "/a/b/link")
	})
	answer := func(s *side, path string, fl vfs.WalkFlags) string {
		ref, err := s.user.Walk(path, fl)
		if err != nil {
			return fmt.Sprint(fsapi.ToErrno(err))
		}
		ino := ref.D.Inode()
		if ino == nil {
			return "no inode"
		}
		return fmt.Sprintf("%v %o %s", ino.Mode().Type(), ino.Mode().Perm(), ref.D.Name())
	}
	// warm publishes and memoizes dir for the user on the optimized side.
	warm := func(dir string) {
		for i := 0; i < 3; i++ {
			answer(opt, dir, 0)
		}
	}
	cases := []struct {
		name    string
		setup   func(s *side) error
		warm    []string
		path    string
		fl      vfs.WalkFlags
		resumed bool
	}{
		{"plain", func(s *side) error { return s.root.Create("/a/b/c/f1", 0o644) }, []string{"/a/b/c"}, "/a/b/c/f1", 0, true},
		{"missing", nil, []string{"/a/b/c"}, "/a/b/c/ghost", 0, true},
		{"through a symlink", func(s *side) error { return s.root.Create("/a/b/c/f2", 0o644) }, []string{"/a/b/link"}, "/a/b/link/f2", 0, false},
		{"under a symlink", func(s *side) error { return s.root.Create("/a/b/c/sub/f3", 0o644) }, []string{"/a/b/link/sub"}, "/a/b/link/sub/f3", 0, false},
		{"through dot-dot", func(s *side) error { return s.root.Create("/a/b/c/f4", 0o644) }, []string{"/a/b/c", "/a/b/c/sub"}, "/a/b/c/sub/../f4", 0, true},
		{"dot-dot last", nil, []string{"/a/b/c/sub"}, "/a/b/c/sub/..", 0, false},
		{"trailing slash on a directory", func(s *side) error { return s.root.Mkdir("/a/b/c/d5", 0o755) }, []string{"/a/b/c"}, "/a/b/c/d5/", 0, false},
		{"trailing slash on a file", func(s *side) error { return s.root.Create("/a/b/c/f6", 0o644) }, []string{"/a/b/c"}, "/a/b/c/f6/", 0, false},
		{"final symlink followed", func(s *side) error { return s.root.Symlink("sub", "/a/b/c/l7") }, []string{"/a/b/c"}, "/a/b/c/l7", 0, true},
		{"final symlink not followed", func(s *side) error { return s.root.Symlink("sub", "/a/b/c/l8") }, []string{"/a/b/c"}, "/a/b/c/l8", vfs.WalkNoFollow, true},
		{"final symlink to an absolute target", func(s *side) error { return s.root.Symlink("/a/b", "/a/b/c/l9") }, []string{"/a/b/c"}, "/a/b/c/l9", 0, true},
		{"final dangling symlink", func(s *side) error { return s.root.Symlink("nowhere", "/a/b/c/l10") }, []string{"/a/b/c"}, "/a/b/c/l10", 0, true},
		{"through a bind mount", func(s *side) error {
			if _, err := s.root.BindMount("/a/b", "/bind", 0); err != nil {
				return err
			}
			return s.root.Create("/a/b/c/f11", 0o644)
		}, []string{"/bind/c"}, "/bind/c/f11", 0, true},
		{"beside a bind mount", func(s *side) error { return s.root.Create("/a/b/c/f12", 0o644) }, []string{"/bind/c"}, "/bind/c/f12", 0, true},
		{"relative to the working directory", func(s *side) error {
			if err := s.user.Chdir("/a/b"); err != nil {
				return err
			}
			return s.root.Create("/a/b/c/f14", 0o644)
		}, []string{"/a/b/c"}, "c/f14", 0, true},
		{"the other view of a bind mount", func(s *side) error { return s.root.Create("/a/b/c/f13", 0o644) }, []string{"/a/b/c"}, "/a/b/c/f13", 0, true},
		{"a directory the user may no longer search", func(s *side) error {
			if err := s.root.Create("/a/b/c/f16", 0o644); err != nil {
				return err
			}
			return s.root.Chmod("/a/b", 0o700)
		}, nil, "/a/b/c/f16", 0, false},
	}
	for _, tc := range cases {
		if tc.setup != nil {
			both(tc.setup)
		}
		for _, dir := range tc.warm {
			warm(dir)
		}
		for i := 0; i < 3; i++ {
			before := opt.k.Stats()
			want, got := answer(base, tc.path, tc.fl), answer(opt, tc.path, tc.fl)
			d := opt.k.Stats().Delta(before)
			if got != want {
				t.Errorf("%s: walk %d of %q answered %q, baseline %q", tc.name, i, tc.path, got, want)
			}
			if i == 0 && (d.ResumedWalks == 1) != tc.resumed {
				t.Errorf("%s: the first walk of %q resumed %d times (%d slow walks), want resumed=%v", tc.name, tc.path, d.ResumedWalks, d.SlowWalks, tc.resumed)
			}
		}
	}
}
