package core

import (
	"testing"

	"dircache/internal/audit"
	"dircache/internal/cred"
	"dircache/internal/memfs"
	"dircache/internal/vfs"
)

// inLookupFixture builds an optimized kernel that admits fastpath
// population on the first touch, so a single cold walk is enough to
// publish its dentries to the DLHT.
func inLookupFixture(t *testing.T) (*vfs.Kernel, *Core, *vfs.Task) {
	t.Helper()
	k := vfs.NewKernel(vfs.Config{DirCompleteness: true}, memfs.New(memfs.Options{}))
	c := Install(k, Config{Seed: 42, AdmitAfter: 1})
	root := k.NewTask(cred.Root())
	for _, p := range []string{"/a", "/a/b"} {
		if err := root.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Create("/a/b/file", 0o644); err != nil {
		t.Fatal(err)
	}
	return k, c, root
}

// TestAuditCatchesLeakedInLookup injects the one bug the dlht_in_lookup
// check exists for: a resolved miss that never cleared its DInLookup flag
// and was published to the DLHT all the same (population only screens for
// dead dentries). The auditor must flag it. The control half proves the
// same workload without the injected bug audits clean while still
// exercising the check.
func TestAuditCatchesLeakedInLookup(t *testing.T) {
	run := func(t *testing.T, inject bool) audit.Report {
		t.Helper()
		k, c, root := inLookupFixture(t)
		k.DropCaches()
		// Cold walks resolve every component through missLookup. Walk twice
		// so admission and publication definitely happen.
		for i := 0; i < 2; i++ {
			if _, err := root.Stat("/a/b/file"); err != nil {
				t.Fatal(err)
			}
		}
		if inject {
			ref, err := root.Walk("/a/b/file", 0)
			if err != nil {
				t.Fatal(err)
			}
			leakInLookup(ref.D)
		}
		rep := audit.New(k, c).RunUntilValid(5)
		if !rep.Valid {
			t.Fatal("audit pass never validated on a quiescent system")
		}
		if rep.Checked["dlht_in_lookup"] == 0 {
			t.Fatal("dlht_in_lookup check examined no entries (nothing was published)")
		}
		return rep
	}

	t.Run("control", func(t *testing.T) {
		rep := run(t, false)
		if n := rep.Violations(); n != 0 {
			t.Fatalf("clean system reported %d violations: %s", n, rep.Summary())
		}
	})
	t.Run("injected", func(t *testing.T) {
		rep := run(t, true)
		found := false
		for _, f := range rep.Findings {
			if f.Check == "dlht_in_lookup" {
				found = true
			}
		}
		if !found {
			t.Fatalf("auditor missed the leaked in-lookup placeholder: %s", rep.Summary())
		}
	})
}
