package vfs_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dircache/internal/audit"
	"dircache/internal/cred"
	"dircache/internal/memfs"
	"dircache/internal/vfs"
)

// TestTableResizeVsLookup races hash-table probes against the table's
// doublings (`make race` runs it under the detector). A writer creates
// enough files to take the table from its first size through six
// doublings, renaming one and removing a directory as it goes so chains
// lose nodes between doublings too; all the while readers probe a resident
// set that nobody touches. Each resident name is created over a dead node
// for the same key, as lazy teardown leaves them, which the create's insert
// sweeps. A probe must come back with exactly the resident dentry every
// time: nil is a miss for a key that was there for the whole probe (a
// reader caught on an array whose chains were not yet, or no longer,
// complete), a dead dentry is one lookup must never return, and anything
// else is a copied node naming the wrong dentry. Afterwards the auditor's
// pass over the cache, hash chains included, is clean.
func TestTableResizeVsLookup(t *testing.T) {
	const (
		resident = 256
		dirs     = 64
		perDir   = 520 // dirs*perDir names live at once: past 1<<15, so the table reaches 1<<16
	)
	if testing.Short() {
		t.Skip("creates 33k files per era")
	}
	for _, mode := range []vfs.SyncMode{vfs.SyncRCU, vfs.SyncBucketLock, vfs.SyncBigLock} {
		t.Run(mode.String(), func(t *testing.T) {
			k := vfs.NewKernel(vfs.Config{SyncMode: mode}, memfs.New(memfs.Options{}))
			root := k.NewTask(cred.Root())
			if err := root.Mkdir("/res", 0o755); err != nil {
				t.Fatal(err)
			}
			resDir, err := root.Walk("/res", 0)
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, resident)
			want := make([]*vfs.Dentry, resident)
			for i := range names {
				names[i] = fmt.Sprintf("r%03d", i)
				k.PlantDeadShadow(resDir.D, names[i])
				if err := root.Create("/res/"+names[i], 0o644); err != nil {
					t.Fatal(err)
				}
				ref, err := root.Walk("/res/"+names[i], 0)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = ref.D
			}
			before := k.TableStats()

			var done atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					task := k.NewTask(cred.Root())
					for i := g; !done.Load(); i++ {
						n := i % resident
						if got := k.TableProbe(resDir.D, names[n]); got != want[n] {
							t.Errorf("probe of resident %s returned %v, want dentry #%d", names[n], got, want[n].ID())
							return
						}
						if _, err := task.Stat("/res/" + names[n]); err != nil {
							t.Errorf("stat of resident %s: %v", names[n], err)
							return
						}
					}
				}(g)
			}
			for d := 0; d < dirs; d++ {
				dir := fmt.Sprintf("/w%02d", d)
				if err := root.Mkdir(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				for f := 0; f < perDir; f++ {
					if err := root.Create(fmt.Sprintf("%s/f%03d", dir, f), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if err := root.Rename(dir+"/f000", dir+"/g000"); err != nil {
					t.Fatal(err)
				}
				if err := root.Mkdir(dir+"/sub", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := root.Rmdir(dir + "/sub"); err != nil {
					t.Fatal(err)
				}
			}
			done.Store(true)
			wg.Wait()

			after := k.TableStats()
			if got := after.Resizes - before.Resizes; got < 6 || after.Entries > after.Buckets {
				t.Fatalf("table went %+v -> %+v: %d doublings, want >= 6 and entries <= buckets", before, after, got)
			}
			r := audit.New(k, nil).RunUntilValid(10)
			if !r.Valid || r.Violations() != 0 || r.Checked["slab_liveness"] == 0 {
				t.Fatalf("audit after the storm: %s", r.Summary())
			}
		})
	}
}
