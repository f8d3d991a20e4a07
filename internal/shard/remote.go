package shard

import (
	"strconv"
	"strings"

	"dircache"
	"dircache/internal/coherence"
	"dircache/internal/fsapi"
	"dircache/internal/ninep"
)

// Remote is a Shard over a dcserve endpoint speaking the 9P2000.dcshard
// extension: metadata ops ride the ordinary 9P verbs, the coherence
// subscription rides Tjournal, and peer invalidations ride Tshoot. It
// deliberately implements neither Prober nor Doctorable — probing a
// remote cache over the wire would walk it (populating what it meant to
// observe), so the cross-shard auditor treats remote shards as opaque
// and relies on lag plus the server's own doctor.
type Remote struct {
	c    *ninep.Client
	root *ninep.Fid
}

// DialRemote connects to addr and attaches as uname ("" = root),
// requiring the dcshard extension.
func DialRemote(addr, uname string) (*Remote, error) {
	c, err := ninep.DialShard(addr)
	if err != nil {
		return nil, err
	}
	if uname == "" {
		uname = "root"
	}
	root, err := c.Attach(uname, "/")
	if err != nil {
		c.Close()
		return nil, err
	}
	return &Remote{c: c, root: root}, nil
}

// walk derives a fid at path; the caller clunks it.
func (r *Remote) walk(path string) (*ninep.Fid, error) {
	return r.root.WalkPath(path)
}

// infoOf maps a wire stat record onto FileInfo.
func infoOf(st ninep.Stat) dircache.FileInfo {
	fi := dircache.FileInfo{
		Type:  dircache.TypeRegular,
		Perm:  st.Mode & 0o777,
		Size:  int64(st.Length),
		Mtime: uint64(st.Mtime),
		Inode: st.Qid.Path,
	}
	switch {
	case st.Mode&ninep.DMDir != 0:
		fi.Type = dircache.TypeDirectory
	case st.Mode&ninep.DMSymlink != 0:
		fi.Type = dircache.TypeSymlink
	}
	if v, err := strconv.ParseUint(st.UID, 10, 32); err == nil {
		fi.UID = uint32(v)
	}
	if v, err := strconv.ParseUint(st.GID, 10, 32); err == nil {
		fi.GID = uint32(v)
	}
	return fi
}

func (r *Remote) Lstat(path string) (dircache.FileInfo, error) {
	f, err := r.walk(path)
	if err != nil {
		return dircache.FileInfo{}, err
	}
	defer f.Clunk()
	st, err := f.Stat()
	if err != nil {
		return dircache.FileInfo{}, err
	}
	return infoOf(st), nil
}

// Stat is Lstat over the wire: the server's walk resolves symlink-free
// canonical paths, which is all the router routes.
func (r *Remote) Stat(path string) (dircache.FileInfo, error) { return r.Lstat(path) }

func (r *Remote) ReadDir(path string) ([]dircache.DirEntry, error) {
	f, err := r.walk(path)
	if err != nil {
		return nil, err
	}
	defer f.Clunk()
	if err := f.Open(ninep.ORead); err != nil {
		return nil, err
	}
	sts, err := f.ReadDir()
	if err != nil {
		return nil, err
	}
	ents := make([]dircache.DirEntry, 0, len(sts))
	for _, st := range sts {
		e := dircache.DirEntry{Name: st.Name, Inode: st.Qid.Path, Type: dircache.TypeRegular}
		switch {
		case st.Mode&ninep.DMDir != 0:
			e.Type = dircache.TypeDirectory
		case st.Mode&ninep.DMSymlink != 0:
			e.Type = dircache.TypeSymlink
		}
		ents = append(ents, e)
	}
	return ents, nil
}

func (r *Remote) ReadFile(path string) ([]byte, error) {
	f, err := r.walk(path)
	if err != nil {
		return nil, err
	}
	defer f.Clunk()
	if err := f.Open(ninep.ORead); err != nil {
		return nil, err
	}
	return f.ReadAll()
}

func (r *Remote) WriteFile(path string, data []byte, perm uint32) error {
	// Existing file: truncate-and-write through its fid.
	if f, err := r.walk(path); err == nil {
		defer f.Clunk()
		if err := f.Open(ninep.OWrite | ninep.OTrunc); err != nil {
			return err
		}
		_, err := f.Write(data, 0)
		return err
	}
	// Fresh file: Tcreate under the parent.
	dir, name := splitPath(path)
	f, err := r.walk(dir)
	if err != nil {
		return err
	}
	defer f.Clunk()
	if err := f.Create(name, perm&0o777, ninep.OWrite); err != nil {
		return err
	}
	_, err = f.Write(data, 0)
	return err
}

func (r *Remote) Mkdir(path string, perm uint32) error {
	dir, name := splitPath(path)
	f, err := r.walk(dir)
	if err != nil {
		return err
	}
	defer f.Clunk()
	return f.Create(name, perm&0o777|ninep.DMDir, ninep.ORead)
}

func (r *Remote) MkdirAll(path string, perm uint32) error {
	mk := func(p string) error {
		err := r.Mkdir(p, perm)
		if err != nil && fsapi.ToErrno(err) == fsapi.EEXIST {
			return nil
		}
		return err
	}
	for i := 1; i < len(path); i++ {
		if path[i] == '/' {
			if err := mk(path[:i]); err != nil {
				return err
			}
		}
	}
	return mk(path)
}

// Rename renames within one directory via Twstat's name field — the only
// rename 9P2000 expresses. The router keeps rename-heavy roots pinned, so
// cross-directory moves never need to cross the wire; one that does
// arrive reports EINVAL rather than guessing.
func (r *Remote) Rename(oldPath, newPath string) error {
	od, _ := splitPath(oldPath)
	nd, name := splitPath(newPath)
	if od != nd {
		return fsapi.EINVAL
	}
	f, err := r.walk(oldPath)
	if err != nil {
		return err
	}
	defer f.Clunk()
	st := ninep.EmptyStat()
	st.Name = name
	return f.Wstat(st)
}

func (r *Remote) remove(path string) error {
	f, err := r.walk(path)
	if err != nil {
		return err
	}
	return f.Remove() // Tremove clunks win or lose
}

func (r *Remote) Unlink(path string) error { return r.remove(path) }
func (r *Remote) Rmdir(path string) error  { return r.remove(path) }

func (r *Remote) Chmod(path string, perm uint32) error {
	f, err := r.walk(path)
	if err != nil {
		return err
	}
	defer f.Clunk()
	st := ninep.EmptyStat()
	st.Mode = perm & 0o777
	return f.Wstat(st)
}

func (r *Remote) EventsSince(cursor uint64) ([]coherence.Record, uint64, bool) {
	recs, next, fell, err := r.c.Journal(cursor)
	if err != nil {
		// A dead journal stream must not read as "caught up": report
		// fell-behind so the subscriber fails closed.
		return nil, cursor, true
	}
	return recs, next, fell
}

// Pending reads the records and counts them: the wire has no cheaper
// question to ask. A reader that fell behind, or a dead stream, owes a
// whole-cache drop and reads as coherence.Capacity, as a Local's log says
// (ringlog.Log.Pending).
func (r *Remote) Pending(cursor uint64) int {
	recs, _, fell := r.EventsSince(cursor)
	if fell {
		return coherence.Capacity
	}
	return len(recs)
}

func (r *Remote) Invalidate(rec coherence.Record) int {
	n, _ := r.c.Shoot(rec.Path, rec.Note)
	return n
}

func (r *Remote) InvalidateAll() int {
	n, _ := r.c.Shoot("", "")
	return n
}

func (r *Remote) Close() error { return r.c.Close() }

func splitPath(p string) (dir, name string) {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/", p[i+1:]
	}
	return p[:i], p[i+1:]
}
