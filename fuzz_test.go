package dircache_test

import (
	"fmt"
	"testing"

	"dircache"
)

// FuzzPathEquivalence feeds arbitrary path strings to a baseline and an
// optimized system holding identical trees; both must return identical
// results for Stat, Lstat, and Open — as root, and then as an unprivileged
// user before, during and after /a loses its search permission (the
// chmod-then-walk case: whatever the first rounds cached for the user below
// /a is revoked by one range mark, not by a visit). Runs its seed corpus as
// a regular test; `go test -fuzz=FuzzPathEquivalence` explores further.
func FuzzPathEquivalence(f *testing.F) {
	seeds := []string{
		"/", "", ".", "..", "/a", "/a/b/c.txt", "a/b/c.txt",
		"/a//b///c.txt", "/a/./b/../b/c.txt", "/lnk/c.txt", "/lnk",
		"/a/b/c.txt/", "/a/b/c.txt/x", "/ghost", "/a/ghost/deep/path",
		"/../../a/b/c.txt", "/a/b/../../a/b/c.txt", "/dang",
		"/loopA", "/loopA/x", "//", "/a/", "/a/.", "/a/..",
		"/\x00bad", "/verylongname" + string(make([]byte, 300)),
		// Routes into /a's subtree for the chmod-then-walk rounds.
		"/lnk/b/c.txt", "/lnk/b/../b/c.txt", "/lnk/b/.", "b/c.txt",
		"../a/b/c.txt", "/a/b/ghost/deeper", "/lnk/b/c.txt/x",
		// "." looked up in a symlink or a file (found by this target: a
		// lexical skip answered lstat with the link itself).
		"/lnk/.", "/a/b/c.txt/.",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	build := func(cfg dircache.Config) (root, user *dircache.Process) {
		sys := dircache.New(cfg)
		p := sys.Start(dircache.RootCreds())
		p.MkdirAll("/a/b", 0o755)
		p.WriteFile("/a/b/c.txt", []byte("x"), 0o644)
		p.Symlink("/a", "/lnk")
		p.Symlink("/nowhere", "/dang")
		p.Symlink("/loopB", "/loopA")
		p.Symlink("/loopA", "/loopB")
		p.Chdir("/a")
		u := sys.Start(dircache.UserCreds(1000))
		u.Chdir("/a")
		return p, u
	}
	optCfg := dircache.Optimized()
	optCfg.SignatureSeed = 0xf022
	base, baseUser := build(dircache.Baseline())
	opt, optUser := build(optCfg)

	render := func(p *dircache.Process, path string) string {
		si, serr := p.Stat(path)
		li, lerr := p.Lstat(path)
		out := fmt.Sprintf("stat=%d/%v/%o lstat=%d/%v/%o",
			dircache.Errno(serr), si.Type, si.Perm,
			dircache.Errno(lerr), li.Type, li.Perm)
		fh, oerr := p.Open(path, dircache.O_RDONLY, 0)
		out += fmt.Sprintf(" open=%d", dircache.Errno(oerr))
		if oerr == nil {
			fh.Close()
		}
		return out
	}

	f.Fuzz(func(t *testing.T, path string) {
		if len(path) > 4200 {
			path = path[:4200]
		}
		// Twice each, so the second round exercises fastpath hits and
		// cached negatives on the optimized side.
		same := func(who string, bp, op *dircache.Process) {
			for round := 0; round < 2; round++ {
				b := render(bp, path)
				o := render(op, path)
				if b != o {
					t.Fatalf("path %q %s round %d diverged:\n baseline:  %s\n optimized: %s",
						path, who, round, b, o)
				}
			}
		}
		same("root", base, opt)
		for _, st := range []struct {
			who  string
			perm uint32
		}{{"user", 0o755}, {"user, /a 000", 0}, {"user, /a restored", 0o755}} {
			for _, root := range []*dircache.Process{base, opt} {
				if err := root.Chmod("/a", st.perm); err != nil {
					t.Fatal(err)
				}
			}
			same(st.who, baseUser, optUser)
		}
	})
}
