package vfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
)

// TestStressWalkVsMutate runs concurrent walkers against concurrent
// rename/chmod/create/unlink/Shrink traffic. It is primarily a race
// detector gate (`make race`) for the shrinker's hand, the referenced-flag
// touch, and the striped counters; without -race it still smoke-tests
// that lock-free walks never return torn results while the tree churns.
func TestStressWalkVsMutate(t *testing.T) {
	for _, mode := range []SyncMode{SyncRCU, SyncBucketLock} {
		t.Run(mode.String(), func(t *testing.T) {
			k, root := newKernel(t, Config{
				SyncMode:            mode,
				CacheCapacity:       96,
				DirCompleteness:     true,
				AggressiveNegatives: true,
			})
			for i := 0; i < 64; i++ {
				if err := root.Create(fmt.Sprintf("/tmp/s%03d", i), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			iters := 3000
			if testing.Short() {
				iters = 300
			}
			var wg sync.WaitGroup

			// Walkers: stable paths must keep resolving; missing paths
			// must keep failing with ENOENT.
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					task := k.NewTask(cred.Root())
					for i := 0; i < iters; i++ {
						if _, err := task.Stat("/usr/include/sys/types.h"); err != nil {
							panic(fmt.Sprintf("stable path vanished: %v", err))
						}
						task.Stat(fmt.Sprintf("/tmp/s%03d", (seed*31+i)%64))
						if _, err := task.Stat("/etc/enoent"); err == nil {
							panic("missing path resolved")
						}
						task.Stat("/home/alice/projects/code.go") // may ENOENT mid-rename
					}
				}(g)
			}

			// Renamer: swings a directory back and forth under the walkers.
			wg.Add(1)
			go func() {
				defer wg.Done()
				task := k.NewTask(cred.Root())
				for i := 0; i < iters; i++ {
					task.Rename("/home/alice/projects", "/home/alice/projects2")
					task.Rename("/home/alice/projects2", "/home/alice/projects")
				}
			}()

			// Chmodder: permission-relevant metadata churn (invalidation
			// edges under the walkers' prefix checks).
			wg.Add(1)
			go func() {
				defer wg.Done()
				task := k.NewTask(cred.Root())
				for i := 0; i < iters; i++ {
					task.Chmod("/usr/include", fsapi.Mode(0o755))
					task.Chmod("/usr/include", fsapi.Mode(0o711))
				}
			}()

			// Churner: create/unlink keeps the LRU allocating while the
			// shrinker runs.
			wg.Add(1)
			go func() {
				defer wg.Done()
				task := k.NewTask(cred.Root())
				for i := 0; i < iters; i++ {
					p := fmt.Sprintf("/tmp/churn%02d", i%16)
					task.Create(p, 0o644)
					task.Unlink(p)
				}
			}()

			// Shrinker: explicit eviction pressure on top of capacity.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters/4; i++ {
					k.Shrink(8)
				}
			}()

			wg.Wait()

			// The counters must have stayed coherent: snapshots are sums
			// of monotonic cells, so totals can't go negative or lose the
			// walkers' traffic.
			st := k.Stats()
			if st.Lookups <= 0 || st.SlowWalks <= 0 {
				t.Fatalf("stats lost traffic: %+v", st)
			}
			if st.Evictions <= 0 {
				t.Fatal("shrinker never evicted under pressure")
			}
			if _, err := root.Stat("/usr/include/sys/types.h"); err != nil {
				t.Fatalf("tree damaged by stress run: %v", err)
			}
		})
	}
}

// TestSeqRetryNeverEscapes: errSeqRetry is the walk's internal "redo"
// signal. Eviction takes none of the era locks, so in every SyncMode a
// walk can step onto a dentry Shrink killed under it; the walk must redo,
// never hand the sentinel to its caller.
func TestSeqRetryNeverEscapes(t *testing.T) {
	for _, mode := range []SyncMode{SyncRCU, SyncBucketLock, SyncBigLock} {
		t.Run(mode.String(), func(t *testing.T) {
			k, root := newKernel(t, Config{SyncMode: mode, CacheCapacity: 32, DirCompleteness: true})
			for i := 0; i < 64; i++ {
				if err := root.Create(fmt.Sprintf("/tmp/s%03d", i), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			iters := 3000
			if testing.Short() {
				iters = 300
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					task := k.NewTask(cred.Root())
					for i := 0; i < iters; i++ {
						for _, path := range []string{
							"/usr/include/sys/types.h",
							fmt.Sprintf("/tmp/s%03d", (seed*31+i)%64),
							"/etc/enoent",
						} {
							if _, err := task.Walk(path, 0); errors.Is(err, errSeqRetry) {
								t.Errorf("Walk(%s) returned the internal retry sentinel", path)
								return
							}
						}
					}
				}(g)
			}
			// Churner and shrinker: allocation at capacity plus explicit
			// eviction, so dentries die under the walkers' feet.
			wg.Add(1)
			go func() {
				defer wg.Done()
				task := k.NewTask(cred.Root())
				for i := 0; i < iters; i++ {
					p := fmt.Sprintf("/tmp/churn%02d", i%16)
					task.Create(p, 0o644)
					task.Unlink(p)
					k.Shrink(8)
				}
			}()
			wg.Wait()
		})
	}
}
