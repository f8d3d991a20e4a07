package vfs

import (
	"sync"

	"dircache/internal/fsapi"
	"dircache/internal/telemetry"
)

// File is an open file description: position, flags, and — for
// directories — the readdir cursor that drives §5.1's completeness
// tracking.
type File struct {
	t     *Task
	ref   PathRef
	ino   *Inode
	flags OpenFlag

	mu  sync.Mutex
	pos int64

	// Directory iteration state.
	dirCookie        uint64
	dirEOF           bool
	dirSeeked        bool   // lseek() other than rewind: completeness is off
	startEpoch       uint64 // eviction epoch at (re)wind
	dirStarted       bool
	cachedList       []fsapi.DirEntry // snapshot when serving from the dcache
	cachedIdx        int
	servingFromCache bool

	// release drops the FS-level node pin taken at open (open-unlinked
	// file support).
	release func()

	closed bool
}

// Path returns the file's resolved location.
func (f *File) Path() PathRef { return f.ref }

// Dentry returns the file's dentry.
func (f *File) Dentry() *Dentry { return f.ref.D }

// Stat returns the file's current metadata.
func (f *File) Stat() (fsapi.NodeInfo, error) {
	if f.closed {
		return fsapi.NodeInfo{}, fsapi.EBADF
	}
	return f.ino.Info(), nil
}

// Close releases the handle.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fsapi.EBADF
	}
	f.closed = true
	f.ino.put()
	f.ref.D.Unref()
	if f.release != nil {
		f.release()
	}
	return nil
}

// Read reads from the current position.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fsapi.EBADF
	}
	if f.flags&O_ACCMODE == O_WRONLY {
		return 0, fsapi.EBADF
	}
	n, err := f.ref.D.sb.fs.ReadAt(f.ino.ID(), p, f.pos)
	f.pos += int64(n)
	return n, err
}

// ReadAt reads at an absolute offset without moving the position.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, fsapi.EBADF
	}
	if f.flags&O_ACCMODE == O_WRONLY {
		return 0, fsapi.EBADF
	}
	return f.ref.D.sb.fs.ReadAt(f.ino.ID(), p, off)
}

// Write writes at the current position (or EOF with O_APPEND).
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fsapi.EBADF
	}
	if f.flags&O_ACCMODE == O_RDONLY {
		return 0, fsapi.EBADF
	}
	if f.flags&O_APPEND != 0 {
		f.pos = f.ino.Size()
	}
	n, err := f.ref.D.sb.fs.WriteAt(f.ino.ID(), p, f.pos)
	f.pos += int64(n)
	if err == nil {
		f.ino.refresh() // f.ref.D may have lost it to an unlink
	}
	return n, err
}

// Seek repositions the file. For directories, Seek(0, 0) is rewinddir;
// any other seek disables completeness accumulation for this handle
// (§5.1: a series of readdirs "without an lseek() on the directory
// handle").
func (f *File) Seek(off int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fsapi.EBADF
	}
	var base int64
	switch whence {
	case 0:
		base = 0
	case 1:
		base = f.pos
	case 2:
		base = f.ino.Size()
	default:
		return 0, fsapi.EINVAL
	}
	npos := base + off
	if npos < 0 {
		return 0, fsapi.EINVAL
	}
	if f.ino.Mode().IsDir() {
		if npos == 0 {
			f.rewindDirLocked()
		} else {
			f.dirSeeked = true
			f.dirCookie = uint64(npos)
			f.cachedList = nil
			f.servingFromCache = false
		}
	}
	f.pos = npos
	return npos, nil
}

func (f *File) rewindDirLocked() {
	f.dirCookie = 0
	f.dirEOF = false
	f.dirSeeked = false
	f.dirStarted = false
	f.cachedList = nil
	f.cachedIdx = 0
	f.servingFromCache = false
}

// ReadDir returns up to n directory entries (all remaining if n <= 0),
// advancing the cursor. When the directory is DIR_COMPLETE and
// completeness caching is enabled, the listing is served from the dcache
// without calling the low-level file system (§5.1); otherwise entries come
// from the FS and are inserted into the cache as inode-less dentries, and
// a full uninterrupted pass marks the directory complete.
func (f *File) ReadDir(n int) ([]fsapi.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fsapi.EBADF
	}
	if !f.ino.Mode().IsDir() {
		return nil, fsapi.ENOTDIR
	}
	k := f.t.k
	d := f.ref.D

	if !f.dirStarted {
		f.dirStarted = true
		f.startEpoch = k.lru.Epoch()
		if k.cfg.DirCompleteness && d.Flags()&DComplete != 0 && !f.dirSeeked {
			f.servingFromCache = true
			f.cachedList = snapshotChildren(d)
		}
	}

	if f.servingFromCache {
		k.Count(NReaddirCached, 1)
		if n <= 0 || n > len(f.cachedList)-f.cachedIdx {
			n = len(f.cachedList) - f.cachedIdx
		}
		out := f.cachedList[f.cachedIdx : f.cachedIdx+n]
		f.cachedIdx += n
		return out, nil
	}

	if f.dirEOF {
		return nil, nil
	}
	k.Count(NReaddirFS, 1)
	ents, next, eof, err := d.sb.fs.ReadDir(f.ino.ID(), f.dirCookie, n)
	if err != nil {
		return nil, err
	}
	f.dirCookie = next
	// Feed the results into the dcache (§5.1: get the most possible use
	// from every directory read).
	for _, e := range ents {
		k.installUnhydrated(d, e)
	}
	if eof {
		f.dirEOF = true
		if k.cfg.DirCompleteness && !f.dirSeeked && k.lru.Epoch() == f.startEpoch {
			k.cacheMutBegin()
			d.setFlags(DComplete)
			k.cacheMutEnd()
			if tel := k.journal(); tel != nil {
				tel.Emit(telemetry.JDirComplete, d.ID(), 0, telemetry.NoteReaddir)
			}
		}
	}
	return ents, nil
}

// snapshotChildren renders the cached positive children of d as directory
// entries, reusing the dentry's cached listing when no child has changed —
// a repeated readdir is then a straight copy of a dirent buffer, like the
// kernel serving getdents from the child list (§5.1). Like getdents, no
// particular order is guaranteed.
func snapshotChildren(d *Dentry) []fsapi.DirEntry {
	d.mu.Lock()
	if !d.listValid {
		list := make([]fsapi.DirEntry, 0, len(d.children))
		for name, c := range d.children {
			fl := c.Flags()
			if fl&(DNegative|DAlias|DDead|DInLookup) != 0 {
				continue
			}
			var e fsapi.DirEntry
			e.Name = name
			if ino := c.Inode(); ino != nil {
				e.ID = ino.ID()
				e.Type = ino.Mode().Type()
			} else {
				e.ID = c.hintID
				e.Type = c.hintType
			}
			list = append(list, e)
		}
		d.completeList = list
		d.listValid = true
	}
	out := make([]fsapi.DirEntry, len(d.completeList))
	copy(out, d.completeList)
	d.mu.Unlock()
	return out
}

// ReadDirAll reads the full listing from the current cursor.
func (f *File) ReadDirAll() ([]fsapi.DirEntry, error) {
	var all []fsapi.DirEntry
	for {
		batch, err := f.ReadDir(512)
		if err != nil {
			return all, err
		}
		if len(batch) == 0 {
			return all, nil
		}
		all = append(all, batch...)
	}
}
