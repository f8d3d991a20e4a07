package vfs

import (
	"errors"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
)

// TestRecycleResetsTenantState covers the pooled-reuse contract: Recycle
// must return a task to its newborn shape — initial namespace, root and
// cwd at "/", and the new credential installed.
func TestRecycleResetsTenantState(t *testing.T) {
	k, root := newKernel(t, Config{})
	defer root.Exit()

	a := alice(k)
	if err := a.Chdir("/home/alice/projects"); err != nil {
		t.Fatal(err)
	}

	bobCred := cred.New(1001, 1001, nil, "")
	a.Recycle(bobCred)

	if got := a.Getcwd(); got != "/" {
		t.Fatalf("cwd after recycle = %q, want /", got)
	}
	if a.Cred() != bobCred {
		t.Fatalf("cred after recycle = %+v", a.Cred())
	}

	// The recycled task operates under the NEW credential: bob's 0700
	// subtree opens, alice's view of it would not.
	if _, err := a.Stat("/home/bob/secret/key"); err != nil {
		t.Fatalf("recycled task denied as bob: %v", err)
	}

	// Recycle again to a low-privilege cred: bob's subtree must now deny.
	a.Recycle(cred.New(1000, 1000, nil, ""))
	if _, err := a.Stat("/home/bob/secret/key"); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("second recycle kept stale privilege: %v", err)
	}
	a.Exit() // refcounts must balance after recycles (lru_test audits pins)
}

// TestRecycleLeavesPrivateNamespace ensures a recycled task drops back to
// the initial mount namespace even after UnshareNamespace.
func TestRecycleLeavesPrivateNamespace(t *testing.T) {
	k, root := newKernel(t, Config{})
	defer root.Exit()

	tk := k.NewTask(cred.Root())
	priv := tk.UnshareNamespace()
	if tk.Namespace() != priv {
		t.Fatal("unshare did not install the private namespace")
	}
	tk.Recycle(cred.Root())
	if tk.Namespace() == priv {
		t.Fatal("recycled task kept the previous tenant's namespace")
	}
	if _, err := tk.Stat("/etc/passwd"); err != nil {
		t.Fatalf("stat after recycle: %v", err)
	}
	tk.Exit()
}
