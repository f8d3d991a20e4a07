package dircache_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignReferencesResolve: every "DESIGN §N" a Go file cites names a
// "## N." heading of DESIGN.md, so a renumbered or deleted section cannot
// leave comments pointing at nothing.
func TestDesignReferencesResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([0-9]+[a-z]?)\.`).FindAllStringSubmatch(string(doc), -1) {
		sections[m[1]] = true
	}
	ref := regexp.MustCompile(`DESIGN §([0-9]+[a-z]?)`)
	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's build directory
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range ref.FindAllStringSubmatch(line, -1) {
				refs++
				if !sections[m[1]] {
					t.Errorf("%s:%d cites DESIGN §%s, which DESIGN.md has no \"## %s.\" heading for", path, i+1, m[1], m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("no DESIGN § reference found: the test reads nothing")
	}
}
