package memfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dircache/internal/fsapi"
	"dircache/internal/fstest"
	"dircache/internal/vclock"
)

func TestConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) fsapi.FileSystem {
		return New(Options{})
	})
}

func TestOpCostCharging(t *testing.T) {
	fs := New(Options{OpCostNS: 250})
	var run vclock.Run
	fs.SetClock(&run)
	root := fs.Root().ID
	if _, err := fs.Lookup(root, "nothing"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatal(err)
	}
	if run.Nanos() != 250 {
		t.Fatalf("lookup charged %d, want 250", run.Nanos())
	}
}

func TestNoNegativesCapability(t *testing.T) {
	fs := New(Options{NoNegatives: true, Name: "proc"})
	caps := fs.StatFS().Caps
	if !caps.NoNegatives || caps.Name != "proc" {
		t.Fatalf("caps %+v", caps)
	}
}

func TestReadDirSkipsTombstones(t *testing.T) {
	fs := New(Options{})
	root := fs.Root().ID
	for i := 0; i < 10; i++ {
		fs.Create(root, fmt.Sprintf("f%d", i), fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0)
	}
	for i := 0; i < 10; i += 2 {
		fs.Unlink(root, fmt.Sprintf("f%d", i))
	}
	ents, _, eof, err := fs.ReadDir(root, 0, -1)
	if err != nil || !eof {
		t.Fatal(err)
	}
	if len(ents) != 5 {
		t.Fatalf("got %d entries, want 5", len(ents))
	}
	for _, e := range ents {
		if e.Name[1]%2 == 0 {
			t.Fatalf("deleted entry %q still listed", e.Name)
		}
	}
}

func TestTombstoneCompaction(t *testing.T) {
	fs := New(Options{})
	root := fs.Root().ID
	for i := 0; i < 100; i++ {
		fs.Create(root, fmt.Sprintf("f%03d", i), fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0)
	}
	for i := 0; i < 90; i++ {
		fs.Unlink(root, fmt.Sprintf("f%03d", i))
	}
	ents, _, _, _ := fs.ReadDir(root, 0, -1)
	if len(ents) != 10 {
		t.Fatalf("after compaction: %d entries, want 10", len(ents))
	}
}

// TestRenameAndUnlinkAcrossCompaction: the mutations find a record once
// and tombstone it by offset, and a compaction moves every record. For
// every count of unlinks either side of the compaction threshold, a
// rename within the directory onto an existing name (two tombstones in
// one log), a rename out of it and an unlink must leave each name
// resolving to its own node and the listing holding exactly the names
// left.
func TestRenameAndUnlinkAcrossCompaction(t *testing.T) {
	const files = 100
	for unlinked := 40; unlinked <= 70; unlinked++ {
		fs := New(Options{})
		root := fs.Root().ID
		other, err := fs.Mkdir(root, "other", fsapi.MkMode(fsapi.TypeDirectory, 0o755), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := fs.Mkdir(root, "d", fsapi.MkMode(fsapi.TypeDirectory, 0o755), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		model := map[string]fsapi.NodeID{}
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("f%03d", i)
			fi, err := fs.Create(dir.ID, name, fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			model[name] = fi.ID
		}
		check := func(step string) {
			t.Helper()
			for name, id := range model {
				if fi, err := fs.Lookup(dir.ID, name); err != nil || fi.ID != id {
					t.Fatalf("%d unlinked, after %s: Lookup(%q) = %d, %v; want %d", unlinked, step, name, fi.ID, err, id)
				}
			}
			ents, _, _, err := fs.ReadDir(dir.ID, 0, -1)
			if err != nil || len(ents) != len(model) {
				t.Fatalf("%d unlinked, after %s: %d entries listed (%v), want %d", unlinked, step, len(ents), err, len(model))
			}
			for _, e := range ents {
				if model[e.Name] != e.ID {
					t.Fatalf("%d unlinked, after %s: listed %q -> %d, want %d", unlinked, step, e.Name, e.ID, model[e.Name])
				}
			}
		}
		for i := 0; i < unlinked; i++ {
			name := fmt.Sprintf("f%03d", i)
			if err := fs.Unlink(dir.ID, name); err != nil {
				t.Fatal(err)
			}
			delete(model, name)
		}
		check("unlinks")
		// Source after target in the log, then before it.
		for _, mv := range [][2]string{{"f098", "f097"}, {"f090", "f095"}} {
			if err := fs.Rename(dir.ID, mv[0], dir.ID, mv[1]); err != nil {
				t.Fatal(err)
			}
			model[mv[1]] = model[mv[0]]
			delete(model, mv[0])
			check("rename " + mv[0] + " onto " + mv[1])
		}
		if err := fs.Rename(dir.ID, "f099", other.ID, "moved"); err != nil {
			t.Fatal(err)
		}
		delete(model, "f099")
		check("rename out")
		if err := fs.Unlink(dir.ID, "f096"); err != nil {
			t.Fatal(err)
		}
		delete(model, "f096")
		check("unlink")
	}
}

func TestNlinkAccounting(t *testing.T) {
	fs := New(Options{})
	root := fs.Root().ID
	rootBefore, _ := fs.GetNode(root)
	d, _ := fs.Mkdir(root, "d", fsapi.MkMode(fsapi.TypeDirectory, 0o755), 0, 0)
	rootAfter, _ := fs.GetNode(root)
	if rootAfter.Nlink != rootBefore.Nlink+1 {
		t.Fatalf("parent nlink %d -> %d; want +1 for subdir", rootBefore.Nlink, rootAfter.Nlink)
	}
	if d.Nlink != 2 {
		t.Fatalf("new dir nlink %d, want 2", d.Nlink)
	}
	fs.Rmdir(root, "d")
	rootFinal, _ := fs.GetNode(root)
	if rootFinal.Nlink != rootBefore.Nlink {
		t.Fatalf("rmdir did not restore parent nlink: %d vs %d", rootFinal.Nlink, rootBefore.Nlink)
	}
}

func TestRenameOntoSelfIsNoop(t *testing.T) {
	fs := New(Options{})
	root := fs.Root().ID
	fi, _ := fs.Create(root, "a", fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0)
	fs.Link(root, "b", fi.ID)
	if err := fs.Rename(root, "a", root, "b"); err != nil {
		t.Fatal(err)
	}
	// POSIX: rename of hard links to the same inode does nothing.
	if _, err := fs.Lookup(root, "a"); err != nil {
		t.Fatal("rename onto same inode removed the source")
	}
	if _, err := fs.Lookup(root, "b"); err != nil {
		t.Fatal("rename onto same inode removed the target")
	}
}

func TestConcurrentCreates(t *testing.T) {
	fs := New(Options{})
	root := fs.Root().ID
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("w%d-f%d", w, i)
				if _, err := fs.Create(root, name, fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0); err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ents, _, _, err := fs.ReadDir(root, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != workers*per {
		t.Fatalf("got %d entries, want %d", len(ents), workers*per)
	}
}

func TestSymlinkTargetBounds(t *testing.T) {
	fs := New(Options{})
	root := fs.Root().ID
	if _, err := fs.Symlink(root, "l", "", 0, 0); err == nil {
		t.Fatal("empty symlink target accepted")
	}
	long := make([]byte, 5000)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := fs.Symlink(root, "l", string(long), 0, 0); err == nil {
		t.Fatal("oversized symlink target accepted")
	}
}

func TestMaxLengthNames(t *testing.T) {
	fs := New(Options{})
	root := fs.Root().ID
	long := strings.Repeat("n", 255)
	if _, err := fs.Create(root, long, fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(root, long); err != nil {
		t.Fatalf("lookup of 255-char name: %v", err)
	}
	ents, _, _, _ := fs.ReadDir(root, 0, -1)
	if len(ents) != 1 || ents[0].Name != long {
		t.Fatalf("readdir of long name: %v", ents)
	}
	if _, err := fs.Create(root, long+"x", fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0); !errors.Is(err, fsapi.ENAMETOOLONG) {
		t.Fatalf("256-char name: %v", err)
	}
}

func TestDirentTypePreservedThroughCompaction(t *testing.T) {
	fs := New(Options{})
	root := fs.Root().ID
	fs.Mkdir(root, "keepdir", fsapi.MkMode(fsapi.TypeDirectory, 0o755), 0, 0)
	fs.Symlink(root, "keeplink", "/t", 0, 0)
	for i := 0; i < 200; i++ {
		fs.Create(root, fmt.Sprintf("tmp%03d", i), fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0)
	}
	for i := 0; i < 200; i++ {
		fs.Unlink(root, fmt.Sprintf("tmp%03d", i))
	}
	ents, _, _, err := fs.ReadDir(root, 0, -1)
	if err != nil || len(ents) != 2 {
		t.Fatalf("%v %v", ents, err)
	}
	types := map[string]fsapi.FileType{}
	for _, e := range ents {
		types[e.Name] = e.Type
	}
	if types["keepdir"] != fsapi.TypeDirectory || types["keeplink"] != fsapi.TypeSymlink {
		t.Fatalf("types lost in compaction: %v", types)
	}
}

func TestReadDirResumeAcrossMutations(t *testing.T) {
	fs := New(Options{})
	root := fs.Root().ID
	for i := 0; i < 20; i++ {
		fs.Create(root, fmt.Sprintf("f%02d", i), fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0)
	}
	ents, cookie, _, err := fs.ReadDir(root, 0, 5)
	if err != nil || len(ents) != 5 {
		t.Fatal(err)
	}
	// Delete an already-seen and an unseen entry, then resume.
	fs.Unlink(root, ents[0].Name)
	fs.Unlink(root, "f19")
	rest, _, eof, err := fs.ReadDir(root, cookie, -1)
	if err != nil || !eof {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range append(ents, rest...) {
		if seen[e.Name] {
			t.Fatalf("duplicate %q across resumed listing", e.Name)
		}
		seen[e.Name] = true
	}
	if seen["f19"] {
		t.Fatal("deleted unseen entry appeared")
	}
}
