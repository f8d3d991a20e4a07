package dircache

import (
	"fmt"

	"dircache/internal/blockdev"
	"dircache/internal/buffercache"
	"dircache/internal/diskfs"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/pseudofs"
	"dircache/internal/remotefs"
	"dircache/internal/vclock"
)

// Backend is a mountable low-level file system instance: an in-memory FS,
// an ext2-style FS over a simulated disk, or a proc-like pseudo FS.
type Backend struct {
	fs     fsapi.FileSystem
	dev    *blockdev.Device
	cache  *buffercache.Cache
	clock  *vclock.Run
	remote *remotefs.FS // non-nil for remote backends
}

// MemOptions configures an in-memory backend.
type MemOptions struct {
	// OpCostNS is simulated per-operation latency charged to the
	// backend's virtual clock (models page-cache-warm metadata work).
	OpCostNS int64
	// Name labels the FS in diagnostics.
	Name string
}

// NewMemBackend creates an in-memory file system backend (the stand-in
// for ext4 with a warm page cache).
func NewMemBackend(opts MemOptions) *Backend {
	run := &vclock.Run{}
	fs := memfs.New(memfs.Options{OpCostNS: opts.OpCostNS, Name: opts.Name})
	fs.SetClock(run)
	return &Backend{fs: fs, clock: run}
}

// DiskOptions configures a disk-backed backend.
type DiskOptions struct {
	// BlockSize in bytes (default 4096; must be a power of two).
	BlockSize int
	// Blocks is the device capacity in blocks (default 65536 = 256 MiB
	// at the default block size).
	Blocks int64
	// Inodes bounds the file count (default Blocks/4).
	Inodes uint64
	// CacheBlocks sizes the buffer cache (default 4096 blocks).
	CacheBlocks int
	// Slow selects the 7200 RPM HDD cost model; false models a fast
	// device with negligible charged latency.
	Slow bool
}

// NewDiskBackend creates an ext2-style file system on a simulated block
// device with a buffer cache — the substrate for cold-cache experiments.
func NewDiskBackend(opts DiskOptions) (*Backend, error) {
	if opts.BlockSize == 0 {
		opts.BlockSize = 4096
	}
	if opts.Blocks == 0 {
		opts.Blocks = 65536
	}
	if opts.CacheBlocks == 0 {
		opts.CacheBlocks = 4096
	}
	cost := blockdev.CostModel{}
	if opts.Slow {
		cost = blockdev.HDD7200
	}
	dev, err := blockdev.New(opts.BlockSize, opts.Blocks, cost)
	if err != nil {
		return nil, fmt.Errorf("dircache: backend device: %w", err)
	}
	run := &vclock.Run{}
	dev.SetClock(run)
	bc, err := buffercache.New(dev, opts.CacheBlocks)
	if err != nil {
		return nil, fmt.Errorf("dircache: buffer cache: %w", err)
	}
	fs, err := diskfs.Mkfs(bc, opts.Inodes)
	if err != nil {
		return nil, fmt.Errorf("dircache: mkfs: %w", err)
	}
	return &Backend{fs: fs, dev: dev, cache: bc, clock: run}, nil
}

// RemoteOptions configures a simulated network file system backend.
type RemoteOptions struct {
	// RTTNanos is the simulated per-message round-trip time (default
	// 200µs).
	RTTNanos int64
	// PerOpNanos overrides RTTNanos for individual protocol operations,
	// keyed by name ("lookup", "readdir", "getnode", ...).
	PerOpNanos map[string]int64
}

// NewRemoteBackend creates an NFSv2/3-style remote file system: a
// stateless server (an in-memory FS) behind a simulated network, with
// close-to-open consistency. Per §4.3 of the paper, the optimized cache
// never serves whole-path fastpath hits for such mounts — every component
// revalidates at the server.
func NewRemoteBackend(opts RemoteOptions) *Backend {
	run := &vclock.Run{}
	fs := remotefs.New(memfs.New(memfs.Options{Name: "nfs-export"}), remotefs.Options{
		RTTNanos:   opts.RTTNanos,
		PerOpNanos: opts.PerOpNanos,
	})
	fs.SetClock(run)
	return &Backend{fs: fs, clock: run, remote: fs}
}

// NewProcBackend creates a proc-like pseudo file system with npids
// process directories (§5.2's pseudo-FS negative dentry case).
func NewProcBackend(npids int) *Backend {
	run := &vclock.Run{}
	fs := pseudofs.BuildProc(npids)
	fs.SetClock(run)
	return &Backend{fs: fs, clock: run}
}

// SimulatedIONanos reports the backend's accumulated simulated device and
// operation latency (cold-cache accounting).
func (b *Backend) SimulatedIONanos() int64 { return b.clock.Nanos() }

// ResetSimulatedIO zeroes the simulated-latency accumulator.
func (b *Backend) ResetSimulatedIO() { b.clock.Reset() }

// RemoteOpCounts snapshots per-operation RPC counters ("lookup",
// "readdir", ...) for remote backends; nil otherwise.
func (b *Backend) RemoteOpCounts() map[string]int64 {
	if b.remote == nil {
		return nil
	}
	return b.remote.OpCounts()
}

// InvalidateBufferCache drops the backend's buffer cache (disk backends
// only) — with System.DropCaches, the full cold-cache switch.
func (b *Backend) InvalidateBufferCache() error {
	if b.cache == nil {
		return nil
	}
	return b.cache.Invalidate()
}

// BufferCacheStats reports hit/miss counters for disk backends.
func (b *Backend) BufferCacheStats() (hits, misses int64) {
	if b.cache == nil {
		return 0, 0
	}
	st := b.cache.Stats()
	return st.Hits, st.Misses
}

// DeviceStats reports simulated device activity for disk backends.
func (b *Backend) DeviceStats() (reads, writes, seeks int64) {
	if b.dev == nil {
		return 0, 0, 0
	}
	st := b.dev.Stats()
	return st.Reads, st.Writes, st.Seeks
}
