package audit

import (
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/vfs"
)

// midOpFS runs an audit pass right after each Create, Unlink and Rename
// reaches the backend: the moment the file system has changed and the
// cache has not caught up yet.
type midOpFS struct {
	fsapi.FileSystem
	pass func()
}

func (f *midOpFS) Create(dir fsapi.NodeID, name string, mode fsapi.Mode, uid, gid uint32) (fsapi.NodeInfo, error) {
	info, err := f.FileSystem.Create(dir, name, mode, uid, gid)
	f.pass()
	return info, err
}

func (f *midOpFS) Unlink(dir fsapi.NodeID, name string) error {
	err := f.FileSystem.Unlink(dir, name)
	f.pass()
	return err
}

func (f *midOpFS) Rename(odir fsapi.NodeID, oname string, ndir fsapi.NodeID, nname string) error {
	err := f.FileSystem.Rename(odir, oname, ndir, nname)
	f.pass()
	return err
}

// TestPassInsideBackendCallIsInvalid: a directory cached complete (§5.1)
// disagrees with the file system between a mutation's backend call and the
// cache's update of it. The structure bracket opens before the backend
// call, so a pass taken in that window must come out invalid — were it
// valid, it would report that disagreement as a dir_complete violation.
// A pass after the operation is valid and clean.
func TestPassInsideBackendCallIsInvalid(t *testing.T) {
	for _, op := range []struct {
		name string
		run  func(*vfs.Task) error
	}{
		{"create", func(root *vfs.Task) error { return root.Create("/d/new", 0o644) }},
		{"unlink", func(root *vfs.Task) error { return root.Unlink("/d/f") }},
		{"rename", func(root *vfs.Task) error { return root.Rename("/d/f", "/d/g") }},
	} {
		t.Run(op.name, func(t *testing.T) {
			fs := &midOpFS{FileSystem: memfs.New(memfs.Options{}), pass: func() {}}
			k := vfs.NewKernel(vfs.Config{DirCompleteness: true}, fs)
			aud := New(k, nil)
			root := k.NewTask(cred.Root())
			if err := root.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := root.Create("/d/f", 0o644); err != nil {
				t.Fatal(err)
			}
			var mid Report
			fs.pass = func() { mid = aud.Run() }
			if err := op.run(root); err != nil {
				t.Fatal(err)
			}
			fs.pass = func() {}
			if mid.Valid {
				t.Fatalf("a pass inside the %s's backend call was valid: %s", op.name, mid.Summary())
			}
			if r := aud.Run(); !r.Valid || r.Violations() != 0 || r.Checked["dir_complete"] == 0 {
				t.Fatalf("pass after the %s: %s", op.name, r.Summary())
			}
		})
	}
}
