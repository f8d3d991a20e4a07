package shard

import (
	"fmt"
	"testing"

	"dircache"
)

// TestPeerHearsLeafUnlinkAndFileChmod: the operations that shoot nothing
// down locally — an unlink with nothing cached below the name, a chmod of
// a file — still publish, so the peers that cached the path drop or
// re-read it. Six files every one of three shards has cached are
// unlinked, then a seventh is chmodded.
func TestPeerHearsLeafUnlinkAndFileChmod(t *testing.T) {
	g := newTestGroup(t, 3)
	must(t, g.Router.Mkdir("/srv", 0o755))
	if !g.Router.Converge(0) {
		t.Fatal("set-up did not converge")
	}
	var files []string
	for i := 0; i < 7; i++ {
		f := fmt.Sprintf("/srv/f%d", i)
		must(t, g.Router.WriteFile(f, []byte("x"), 0o644))
		files = append(files, f)
	}
	if !g.Router.Converge(0) {
		t.Fatal("set-up did not converge")
	}
	for _, l := range g.Locals {
		for _, f := range files {
			if _, err := l.Stat(f); err != nil {
				t.Fatal(err)
			}
		}
	}

	pub0, _, _ := g.Router.Stats()
	for _, f := range files[:6] {
		must(t, g.Router.Unlink(f))
	}
	if !g.Router.Converge(0) {
		t.Fatal("unlinks did not converge")
	}
	if pub, _, _ := g.Router.Stats(); pub-pub0 != 6 {
		t.Errorf("6 leaf unlinks published %d records, want 6", pub-pub0)
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit after the unlinks: %v", f)
	}

	chmodded := files[6]
	pub0, _, _ = g.Router.Stats()
	must(t, g.Router.Chmod(chmodded, 0o600))
	if !g.Router.Converge(0) {
		t.Fatal("chmod did not converge")
	}
	if pub, _, _ := g.Router.Stats(); pub-pub0 != 1 {
		t.Errorf("a file chmod published %d records, want 1", pub-pub0)
	}
	for i, l := range g.Locals {
		fi, err := l.Stat(chmodded)
		if err != nil || fi.Perm != 0o600 {
			t.Errorf("shard %d: %s has perm %o (err %v) after its chmod to 0600", i, chmodded, fi.Perm, err)
		}
	}
}

// TestBaselineShardGroup: a System without the fastpath core is as good
// a shard as any — its namespace publishes and applies the same records.
func TestBaselineShardGroup(t *testing.T) {
	g := NewLocalGroup(3, dircache.Baseline(), Options{})
	t.Cleanup(func() { g.Close() })
	r := g.Router
	must(t, r.Mkdir("/srv", 0o755))
	must(t, r.Mkdir("/srv/d", 0o755))
	if !r.Converge(0) {
		t.Fatal("set-up did not converge")
	}
	for i := 0; i < 6; i++ {
		must(t, r.WriteFile(fmt.Sprintf("/srv/d/f%d", i), []byte("x"), 0o644))
	}
	if !r.Converge(0) {
		t.Fatal("set-up did not converge")
	}
	for _, l := range g.Locals {
		for i := 0; i < 6; i++ {
			if _, err := l.Stat(fmt.Sprintf("/srv/d/f%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		l.ReadDir("/srv/d")
	}
	must(t, r.WriteFile("/srv/d/new", []byte("y"), 0o644))
	must(t, r.Unlink("/srv/d/f0"))
	must(t, r.Rename("/srv/d/f1", "/srv/d/g1"))
	must(t, r.Chmod("/srv/d/f2", 0o600))
	must(t, r.Chmod("/srv/d", 0o700))
	if !r.Converge(0) {
		t.Fatal("mix did not converge")
	}
	if pub, app, fall := r.Stats(); pub == 0 || app != pub*2 || fall != 0 {
		t.Fatalf("published %d, applied %d, fallbacks %d", pub, app, fall)
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit: %v", f)
	}
}

// TestMkdirAllPublishesWhatItCreates: MkdirAll of one new directory under
// an existing tree publishes that directory and nothing above it, so a
// peer holding the tree keeps it.
func TestMkdirAllPublishesWhatItCreates(t *testing.T) {
	g := newTestGroup(t, 2)
	must(t, g.Router.Mkdir("/a", 0o755))
	must(t, g.Router.Mkdir("/a/b", 0o755))
	for i := 0; i < 20; i++ {
		must(t, g.Router.WriteFile(fmt.Sprintf("/a/b/f%02d", i), []byte("x"), 0o644))
	}
	if !g.Router.Converge(0) {
		t.Fatal("set-up did not converge")
	}
	peer := g.Locals[1]
	for i := 0; i < 20; i++ {
		if _, err := peer.Stat(fmt.Sprintf("/a/b/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	held := peer.Sys.DentryCount()
	pub0, _, _ := g.Router.Stats()
	must(t, g.Locals[0].MkdirAll("/a/b/c", 0o755))
	g.Router.Pump()
	if pub, _, _ := g.Router.Stats(); pub-pub0 != 1 {
		t.Errorf("MkdirAll of one new directory published %d records, want 1", pub-pub0)
	}
	if n := peer.Sys.DentryCount(); n != held {
		t.Errorf("the peer holds %d dentries, %d before the MkdirAll", n, held)
	}
	if _, err := peer.Stat("/a/b/c"); err != nil {
		t.Errorf("the peer's stat of the new directory: %v", err)
	}
}

// TestGroupBuildsOracleOnFirstAudit: a group builds its cache-less oracle
// on the first Truth or Audit, not before, builds it once, and closes
// whether it audited or not.
func TestGroupBuildsOracleOnFirstAudit(t *testing.T) {
	idle := NewLocalGroup(2, dircache.Optimized(), Options{})
	if idle.oracle != nil {
		t.Fatal("a new group already holds an oracle")
	}
	if err := idle.Close(); err != nil {
		t.Fatalf("closing a group that never audited: %v", err)
	}

	g := NewLocalGroup(2, dircache.Optimized(), Options{})
	t.Cleanup(func() { g.Close() })
	must(t, g.Router.Mkdir("/srv", 0o755))
	if g.oracle != nil {
		t.Fatal("a mutation built the oracle")
	}
	if ok, err := g.Truth("/srv"); !ok || err != nil {
		t.Fatalf("Truth(/srv) = %v, %v", ok, err)
	}
	oracle := g.oracle
	if oracle == nil {
		t.Fatal("Truth did not build the oracle")
	}
	if !g.Router.Converge(0) {
		t.Fatal("did not converge")
	}
	if f := g.Audit(); len(f) != 0 {
		t.Fatalf("audit: %v", f)
	}
	if g.oracle != oracle {
		t.Fatal("Audit built a second oracle")
	}
}
