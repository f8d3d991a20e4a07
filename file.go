package dircache

import (
	"time"

	"dircache/internal/fsapi"
	"dircache/internal/vfs"
)

// FileType mirrors the node types of the VFS.
type FileType uint8

// File types.
const (
	TypeRegular   = FileType(fsapi.TypeRegular)
	TypeDirectory = FileType(fsapi.TypeDirectory)
	TypeSymlink   = FileType(fsapi.TypeSymlink)
)

func (t FileType) String() string { return fsapi.FileType(t).String() }

// FileInfo is public metadata for one file system object.
type FileInfo struct {
	Type  FileType
	Perm  uint32 // permission bits incl. setuid/setgid/sticky
	UID   uint32
	GID   uint32
	Nlink uint32
	Size  int64
	Mtime uint64 // logical modification stamp (monotone per backend)
	Inode uint64
}

func infoFrom(ni fsapi.NodeInfo) FileInfo {
	return FileInfo{
		Type:  FileType(ni.Mode.Type()),
		Perm:  uint32(ni.Mode.Perm()),
		UID:   ni.UID,
		GID:   ni.GID,
		Nlink: ni.Nlink,
		Size:  ni.Size,
		Mtime: ni.Mtime,
		Inode: uint64(ni.ID),
	}
}

// IsDir reports whether the object is a directory.
func (fi FileInfo) IsDir() bool { return fi.Type == TypeDirectory }

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name  string
	Inode uint64
	Type  FileType
}

// File is an open file description.
type File struct {
	f *vfs.File
}

// Close releases the handle.
func (f *File) Close() error { return f.f.Close() }

// Read reads from the current offset.
func (f *File) Read(b []byte) (int, error) { return f.f.Read(b) }

// ReadAt reads at an absolute offset.
func (f *File) ReadAt(b []byte, off int64) (int, error) { return f.f.ReadAt(b, off) }

// Write writes at the current offset (or EOF under O_APPEND).
func (f *File) Write(b []byte) (int, error) { return f.f.Write(b) }

// Seek repositions the handle. For directories, Seek(0,0) is rewinddir.
func (f *File) Seek(off int64, whence int) (int64, error) { return f.f.Seek(off, whence) }

// Stat returns the open file's metadata.
func (f *File) Stat() (FileInfo, error) {
	ni, err := f.f.Stat()
	return infoFrom(ni), err
}

// ReadDir returns up to n entries (all remaining if n <= 0).
func (f *File) ReadDir(n int) ([]DirEntry, error) {
	ents, err := f.f.ReadDir(n)
	return entriesFrom(ents), err
}

// ReadDirAll drains the directory from the current cursor.
func (f *File) ReadDirAll() ([]DirEntry, error) {
	ents, err := f.f.ReadDirAll()
	return entriesFrom(ents), err
}

func entriesFrom(ents []fsapi.DirEntry) []DirEntry {
	out := make([]DirEntry, len(ents))
	for i, e := range ents {
		out[i] = DirEntry{Name: e.Name, Inode: uint64(e.ID), Type: FileType(e.Type)}
	}
	return out
}

// PhaseTimes decomposes a lookup into the Figure 3 cost centers.
type PhaseTimes struct {
	Init       time.Duration
	ScanHash   time.Duration
	HashLookup time.Duration
	PermCheck  time.Duration
	Finalize   time.Duration
}

// Total sums all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.Init + p.ScanHash + p.HashLookup + p.PermCheck + p.Finalize
}
