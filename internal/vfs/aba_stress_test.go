package vfs

import (
	"fmt"
	"sync"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/memfs"
	"dircache/internal/slab"
)

// TestStressSlotRecycleABA hammers the generation-tagged handle scheme:
// eight walkers capture SelfRefs for dentries they resolve while a churner
// unlinks and re-creates the same names, and ReclaimAll forces the retired
// slots back onto the free-list so the re-created dentries land in the
// same arena slots. A stale captured ref must then either fail to resolve
// (generation bumped) or resolve to the exact dentry it was taken from —
// never to the slot's new tenant. Runs under `make race`.
func TestStressSlotRecycleABA(t *testing.T) {
	// /tmp is a backend that takes no negatives, so Unlink kills the dentry (the
	// default flips it negative in place, which never retires the slot —
	// no ABA pressure).
	k, root := newKernel(t, Config{CacheCapacity: 48})
	if _, err := root.Mount(memfs.New(memfs.Options{NoNegatives: true}), "/tmp", 0); err != nil {
		t.Fatal(err)
	}
	const nNames = 8
	for i := 0; i < nNames; i++ {
		if err := root.Create(fmt.Sprintf("/tmp/aba%d", i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	iters := 4000
	if testing.Short() {
		iters = 400
	}

	type capture struct {
		r  slab.Ref
		id uint64
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Walkers: capture (ref, id) pairs inside a pinned epoch section, then
	// re-validate the oldest capture once it has had time to be recycled.
	// Validation is pinned too: if DentryFromRef resolves, the slot cannot
	// be reclaimed-and-reallocated under us, so the identity fields are
	// stable for the comparison.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			task := k.NewTask(cred.Root())
			var caps []capture
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := fmt.Sprintf("/tmp/aba%d", (seed+i)%nNames)
				ep := k.gate.Enter()
				if ref, err := task.Walk(p, 0); err == nil {
					caps = append(caps, capture{ref.D.SelfRef(), ref.D.ID()})
				}
				k.gate.Exit(ep)
				if len(caps) > 32 {
					c := caps[0]
					caps = caps[1:]
					ep := k.gate.Enter()
					if d := k.DentryFromRef(c.r); d != nil {
						if d.SelfRef() != c.r || d.ID() != c.id {
							panic(fmt.Sprintf("stale ref %+v resolved to a different tenant: id %d, want %d",
								c.r, d.ID(), c.id))
						}
					}
					k.gate.Exit(ep)
				}
			}
		}(g)
	}

	// Churner: unlink/re-create the same names so retired slots are
	// recycled for new dentries with the same (parent, name) identity —
	// the classic ABA shape. ReclaimAll forces the limbo drain + grace
	// advance instead of waiting for incidental reapSome batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		task := k.NewTask(cred.Root())
		for i := 0; i < iters; i++ {
			p := fmt.Sprintf("/tmp/aba%d", i%nNames)
			task.Unlink(p)
			task.Create(p, 0o644)
			if i%16 == 0 {
				k.ReclaimAll()
			}
		}
		close(stop)
	}()

	wg.Wait()
	k.ReclaimAll()

	// The churner finished on Create, so every name must resolve.
	for i := 0; i < nNames; i++ {
		if _, err := root.Stat(fmt.Sprintf("/tmp/aba%d", i)); err != nil {
			t.Fatalf("post-stress stat aba%d: %v", i, err)
		}
	}
	// The test is vacuous unless slots actually cycled through the
	// free-list while walkers held stale refs.
	dst, _, _ := k.MemStats()
	if dst.Reclaimed == 0 {
		t.Fatal("no dentry slots were recycled; ABA path never exercised")
	}
	if _, msgs := k.CheckSlabLiveness(16); len(msgs) != 0 {
		t.Fatalf("slab liveness violated after stress: %v", msgs)
	}
}
