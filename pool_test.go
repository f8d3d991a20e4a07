package dircache_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dircache"
)

// poolFixture builds an optimized system with a two-tenant tree: a
// world-readable deep path and a 0700 subtree per tenant uid.
func poolFixture(t *testing.T) *dircache.System {
	t.Helper()
	sys := dircache.New(dircache.Optimized())
	root := sys.Start(dircache.RootCreds())
	defer root.Exit()
	if err := root.MkdirAll("/pub/a/b/c/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := root.WriteFile("/pub/a/b/c/d/f.txt", []byte("pub"), 0o644); err != nil {
		t.Fatal(err)
	}
	for uid := uint32(1); uid <= 2; uid++ {
		base := fmt.Sprintf("/tenant%d", uid)
		if err := root.MkdirAll(base+"/priv", 0o700); err != nil {
			t.Fatal(err)
		}
		if err := root.WriteFile(base+"/priv/secret", []byte("s"), 0o600); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{base, base + "/priv", base + "/priv/secret"} {
			if err := root.Chown(p, uid, uid); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sys
}

// TestProcessPoolRecycleIsolation is satellite 1's contract: a Process
// recycled from one tenant to another carries nothing over — not the
// working directory and not the credential.
func TestProcessPoolRecycleIsolation(t *testing.T) {
	sys := poolFixture(t)
	pool := sys.NewProcessPool(4)

	// Tenant 1 works deep inside its private subtree, then releases the
	// Process.
	p1 := pool.GetCreds(dircache.UserCreds(1))
	if err := p1.Chdir("/tenant1/priv"); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Stat("secret"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p1.Stat("/pub/a/b/c/d/f.txt"); err != nil {
			t.Fatal(err)
		}
	}
	pool.Put(p1)

	// Tenant 2 gets the recycled Process: fresh cwd, tenant-2 credential.
	p2 := pool.Get(dircache.NewIdentity(dircache.UserCreds(2)))
	if got := pool.Stats().Reuses; got != 1 {
		t.Fatalf("expected a recycled Process, reuses=%d", got)
	}
	if got := p2.Getcwd(); got != "/" {
		t.Fatalf("recycled Process inherited cwd %q", got)
	}
	if _, err := p2.Stat("/tenant1/priv/secret"); !errors.Is(err, dircache.ErrPermission) {
		t.Fatalf("recycled Process kept tenant 1 privilege: %v", err)
	}
	if _, err := p2.Stat("/tenant2/priv/secret"); err != nil {
		t.Fatalf("recycled Process denied as tenant 2: %v", err)
	}
	pool.Put(p2)

	if rep := sys.Doctor(); rep.Violations() != 0 {
		t.Fatalf("auditor after pooled reuse:\n%s", rep.Summary())
	}
}

// TestProcessPoolCapAndStats checks parking behaviour: the pool parks at
// most maxIdle Processes and exits the rest.
func TestProcessPoolCapAndStats(t *testing.T) {
	sys := poolFixture(t)
	pool := sys.NewProcessPool(2)
	id := dircache.NewIdentity(dircache.UserCreds(1))
	procs := []*dircache.Process{pool.Get(id), pool.Get(id), pool.Get(id)}
	for _, p := range procs {
		pool.Put(p)
	}
	st := pool.Stats()
	if st.Idle != 2 {
		t.Fatalf("idle=%d, want the maxIdle cap of 2", st.Idle)
	}
	if st.Gets != 3 || st.Returns != 3 || st.Reuses != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Draining reuses both parked Processes before building fresh ones.
	a, b, c := pool.Get(id), pool.Get(id), pool.Get(id)
	if got := pool.Stats().Reuses; got != 2 {
		t.Fatalf("reuses=%d, want 2", got)
	}
	for _, p := range []*dircache.Process{a, b, c} {
		pool.Put(p)
	}
}

// TestIdentitySharesPCC checks the server-side identity contract: two
// Processes started from one Identity share a credential (and so a prefix
// check cache), while UserCreds-built one-offs do not break isolation.
func TestIdentitySharesPCC(t *testing.T) {
	sys := poolFixture(t)
	id := dircache.NewIdentity(dircache.UserCreds(1))
	p1 := sys.StartAs(id)
	p2 := sys.StartAs(id)
	defer p1.Exit()
	defer p2.Exit()

	before := sys.Stats()
	// p1 warms the path; both processes then ride the fastpath. With a
	// shared credential, p2's probes hit the same PCC p1 filled.
	for i := 0; i < 3; i++ {
		if _, err := p1.Stat("/pub/a/b/c/d/f.txt"); err != nil {
			t.Fatal(err)
		}
	}
	warm := sys.Stats().Delta(before)
	if _, err := p2.Stat("/pub/a/b/c/d/f.txt"); err != nil {
		t.Fatal(err)
	}
	d := sys.Stats().Delta(before)
	if d.PCCMisses != warm.PCCMisses {
		t.Fatalf("shared-identity process missed the PCC: %d -> %d misses",
			warm.PCCMisses, d.PCCMisses)
	}
	if c := id.Creds(); c.UID != 1 || c.GID != 1 {
		t.Fatalf("identity creds read back %+v", c)
	}
}

// TestPoolConcurrentChurn hammers Get/Put from many goroutines (run
// under -race via `make audit`'s stress siblings).
func TestPoolConcurrentChurn(t *testing.T) {
	sys := poolFixture(t)
	pool := sys.NewProcessPool(8)
	ids := []*dircache.Identity{
		dircache.NewIdentity(dircache.UserCreds(1)),
		dircache.NewIdentity(dircache.UserCreds(2)),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := ids[g%2]
			want := fmt.Sprintf("/tenant%d/priv/secret", g%2+1)
			other := fmt.Sprintf("/tenant%d/priv/secret", (g+1)%2+1)
			for i := 0; i < 20; i++ {
				p := pool.Get(id)
				if _, err := p.Stat(want); err != nil {
					errs <- fmt.Errorf("g%d own secret: %w", g, err)
				}
				if _, err := p.Stat(other); !errors.Is(err, dircache.ErrPermission) {
					errs <- fmt.Errorf("g%d crossed tenants: %v", g, err)
				}
				pool.Put(p)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rep := sys.Doctor(); rep.Violations() != 0 {
		t.Fatalf("auditor after pool churn:\n%s", rep.Summary())
	}
}
