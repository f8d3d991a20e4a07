package shard

import (
	"dircache"
	"dircache/internal/audit"
	"dircache/internal/coherence"
)

// Shard is one member of the metadata tier: a directory cache that owns a
// slice of the namespace, publishes its invalidation-relevant mutations
// through its coherence log, and applies the records its peers publish —
// a permission change in place, a structural one by discarding its cached
// view of the path. Implemented by Local (an in-process System) and Remote
// (a dcserve endpoint over 9P).
type Shard interface {
	// Metadata operations, absolute canonical paths.
	Stat(path string) (dircache.FileInfo, error)
	Lstat(path string) (dircache.FileInfo, error)
	ReadDir(path string) ([]dircache.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte, perm uint32) error
	Mkdir(path string, perm uint32) error
	MkdirAll(path string, perm uint32) error
	Rename(oldPath, newPath string) error
	Unlink(path string) error
	Rmdir(path string) error
	Chmod(path string, perm uint32) error

	// EventsSince reads the shard's coherence log from cursor (records in
	// ID order, next cursor, fellBehind); see ringlog.Log.Since.
	EventsSince(cursor uint64) ([]coherence.Record, uint64, bool)
	// Pending reports how many records the log holds past cursor, and
	// coherence.Capacity where EventsSince would report fell-behind
	// (ringlog.Log.Pending).
	Pending(cursor uint64) int
	// Invalidate applies one record of a peer's coherence log to this
	// shard's cache (System.RemoteInvalidate); returns dentries discarded.
	Invalidate(rec coherence.Record) int
	// InvalidateAll is the fail-closed fallback when this shard's
	// subscriber fell behind a peer's journal retention.
	InvalidateAll() int

	Close() error
}

// Prober is implemented by shards that can report their cache's current
// claim about a path without consulting the backend — the cross-shard
// auditor's stale-read probe. Remote shards do not implement it (a wire
// stat would populate the server cache and mask staleness).
type Prober interface {
	Claim(path string) dircache.CachedClaim
}

// Doctorable is implemented by shards that can run their own invariant
// audit.
type Doctorable interface {
	Doctor() audit.Report
}

// Local is a Shard over an in-process System. All operations run as root
// through one Process and publish nothing themselves: the System's
// namespace operations write its coherence log.
type Local struct {
	Sys *dircache.System
	p   *dircache.Process
}

// NewLocal wraps sys as a shard, enabling shard coherence on it.
func NewLocal(sys *dircache.System) *Local {
	sys.EnableShardCoherence()
	return &Local{Sys: sys, p: sys.Start(dircache.RootCreds())}
}

func (l *Local) Stat(path string) (dircache.FileInfo, error)  { return l.p.Stat(path) }
func (l *Local) Lstat(path string) (dircache.FileInfo, error) { return l.p.Lstat(path) }
func (l *Local) ReadDir(path string) ([]dircache.DirEntry, error) {
	return l.p.ReadDir(path)
}
func (l *Local) ReadFile(path string) ([]byte, error) { return l.p.ReadFile(path) }

func (l *Local) WriteFile(path string, data []byte, perm uint32) error {
	return l.p.WriteFile(path, data, perm)
}
func (l *Local) Mkdir(path string, perm uint32) error    { return l.p.Mkdir(path, perm) }
func (l *Local) MkdirAll(path string, perm uint32) error { return l.p.MkdirAll(path, perm) }
func (l *Local) Rename(oldPath, newPath string) error    { return l.p.Rename(oldPath, newPath) }
func (l *Local) Unlink(path string) error                { return l.p.Unlink(path) }
func (l *Local) Rmdir(path string) error                 { return l.p.Rmdir(path) }
func (l *Local) Chmod(path string, perm uint32) error    { return l.p.Chmod(path, perm) }

func (l *Local) EventsSince(cursor uint64) ([]coherence.Record, uint64, bool) {
	return l.Sys.EventsSince(cursor)
}
func (l *Local) Pending(cursor uint64) int              { return l.Sys.CoherencePending(cursor) }
func (l *Local) Invalidate(rec coherence.Record) int    { return l.Sys.RemoteInvalidate(rec) }
func (l *Local) InvalidateAll() int                     { return l.Sys.RemoteInvalidateAll() }
func (l *Local) Claim(path string) dircache.CachedClaim { return l.Sys.CachedClaim(path) }
func (l *Local) Doctor() audit.Report                   { return l.Sys.Doctor() }
func (l *Local) Close() error                           { l.p.Exit(); return nil }
