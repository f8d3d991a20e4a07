package vfs

import "testing"

// TestCoherencePublication pins what the kernel puts in its coherence log
// and when, on a kernel without hooks: nothing until EnableCoherence; then
// one record per bracket, carrying the path the dentry had when the bracket
// opened and appearing only once it has ended (a peer that applied it
// earlier could re-read the backend's old state); never one for an
// invalidation a peer asked for; and one per creation, free rename
// destination and bracket-less unlink or permission change, each after its
// backend call succeeded.
func TestCoherencePublication(t *testing.T) {
	k, root := newKernel(t, Config{DirCompleteness: true, AggressiveNegatives: true})
	ref, err := root.Walk("/home/alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	k.beginMutation(ref.D, InvalPerm).End()
	if err := root.Create("/tmp/early", 0o644); err != nil {
		t.Fatal(err)
	}
	if k.Coherence().Head() != 0 {
		t.Fatal("a kernel that is not a shard published a record")
	}

	k.EnableCoherence()
	log := k.Coherence()
	k.EnableCoherence()
	if k.Coherence() != log {
		t.Fatal("EnableCoherence replaced the log on its second call")
	}
	end := k.beginMutation(ref.D, InvalRename)
	if log.Head() != 0 {
		t.Fatal("record visible before the mutation ended")
	}
	end.End()
	recs, next, fell := log.Since(0)
	if fell || next != 1 || len(recs) != 1 || recs[0].Path != "/home/alice" || recs[0].Note != InvalRename.String() {
		t.Fatalf("after one rename bracket: recs=%+v next=%d fell=%v", recs, next, fell)
	}
	for _, why := range []Invalidation{InvalRemote, InvalRemotePerm} {
		k.beginMutation(ref.D, why).End()
		if log.Head() != 1 {
			t.Fatalf("a peer-applied invalidation (%d) was republished", why)
		}
	}

	type rec struct{ path, note string }
	for _, row := range []struct {
		name string
		op   func() error
		want []rec
	}{
		{"create", func() error { return root.Create("/tmp/new", 0o644) },
			[]rec{{"/tmp/new", "create"}}},
		{"mkdir", func() error { return root.Mkdir("/tmp/d", 0o755) },
			[]rec{{"/tmp/d", "create"}}},
		{"symlink", func() error { return root.Symlink("/etc", "/tmp/l") },
			[]rec{{"/tmp/l", "create"}}},
		{"link", func() error { return root.Link("/etc/passwd", "/tmp/pw") },
			[]rec{{"/tmp/pw", "create"}}},
		{"failed mkdir", func() error {
			if err := root.Mkdir("/tmp/d", 0o755); err == nil {
				t.Fatal("second mkdir of /tmp/d succeeded")
			}
			return nil
		}, nil},
		{"overwrite", func() error {
			f, err := root.Open("/tmp/new", O_CREAT|O_TRUNC|O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			return f.Close()
		}, nil},
		// The moved directory's record carries the path read when its
		// bracket opened; the destination is free, so it is published too.
		{"rename to a free name", func() error { return root.Rename("/home/alice", "/home/carol") },
			[]rec{{"/home/carol", "rename-dst"}, {"/home/alice", "rename"}}},
		// A replaced target's unlink bracket already names the destination.
		{"rename onto a file", func() error { return root.Rename("/tmp/new", "/tmp/pw") },
			[]rec{{"/tmp/pw", "unlink"}, {"/tmp/new", "rename"}}},
		{"leaf unlink", func() error { return root.Unlink("/home/carol/notes.txt") },
			[]rec{{"/home/carol/notes.txt", "unlink"}}},
		{"rmdir with nothing cached below", func() error { return root.Rmdir("/tmp/d") },
			[]rec{{"/tmp/d", "unlink"}}},
		{"file chmod", func() error { return root.Chmod("/etc/passwd", 0o600) },
			[]rec{{"/etc/passwd", "perm"}}},
		{"file chown", func() error { return root.Chown("/etc/passwd", 7, 7) },
			[]rec{{"/etc/passwd", "perm"}}},
		{"file label", func() error { return root.SetLabel("/etc/passwd", "secret") },
			[]rec{{"/etc/passwd", "perm"}}},
		{"directory chmod", func() error { return root.Chmod("/usr", 0o750) },
			[]rec{{"/usr", "perm"}}},
	} {
		if err := row.op(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		recs, next, fell = log.Since(next)
		var got []rec
		for _, r := range recs {
			got = append(got, rec{r.Path, r.Note})
		}
		if fell || len(got) != len(row.want) {
			t.Fatalf("%s published %v (fell=%v), want %v", row.name, got, fell, row.want)
		}
		for i := range got {
			if got[i] != row.want[i] {
				t.Fatalf("%s published %v, want %v", row.name, got, row.want)
			}
		}
	}
}
