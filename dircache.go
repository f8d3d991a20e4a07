// Package dircache is a user-space reproduction of the directory cache
// design from "How to Get More Value From Your File System Directory Cache"
// (Tsai et al., SOSP 2015).
//
// It provides a complete virtual file system — dentries, inodes, mounts and
// namespaces, Unix permissions plus an LSM-style hook stack, negative
// dentry caching, and an LRU shrinker — with two interchangeable directory
// cache designs:
//
//   - the baseline: a faithful model of the Linux dcache, with a
//     component-at-a-time path walk and selectable synchronization eras
//     (global lock / per-bucket locks / RCU-style lock-free reads), and
//   - the optimized design of the paper: a Direct Lookup Hash Table keyed
//     by 240-bit full-path signatures, a per-credential Prefix Check Cache
//     that memoizes permission checks, directory completeness tracking,
//     aggressive and deep negative dentries, and symlink alias dentries.
//
// A System hosts one kernel instance; Processes issue path-based
// operations against it. Every optimization can be toggled independently,
// which is how the repository's benchmarks reproduce the paper's tables
// and figures and its ablations.
//
// Quick start:
//
//	sys := dircache.New(dircache.Optimized())
//	p := sys.Start(dircache.RootCreds())
//	p.MkdirAll("/home/alice", 0o755)
//	f, _ := p.Open("/home/alice/hello.txt", dircache.O_CREAT|dircache.O_RDWR, 0o644)
//	f.Write([]byte("hi"))
//	f.Close()
//	info, _ := p.Stat("/home/alice/hello.txt")
package dircache

import (
	"dircache/internal/core"
	"dircache/internal/vfs"
)

// SyncEra selects the baseline dcache's synchronization scheme — the
// progression Figure 2 of the paper charts across Linux releases.
type SyncEra int

// Synchronization eras.
const (
	// EraRCU models Linux 3.14: lock-free lookups with seqlock
	// validation (the default and the paper's baseline).
	EraRCU SyncEra = iota
	// EraBucketLock models ~Linux 3.0: per-bucket locks on lookup.
	EraBucketLock
	// EraBigLock models Linux 2.6.36: one global dcache lock.
	EraBigLock
)

// Features toggles the paper's optimizations individually (for ablations).
// The zero value is the unmodified baseline.
type Features struct {
	// DirectLookup enables §3: the DLHT, path signatures, and the
	// per-credential PCC — whole-path constant-time lookup.
	DirectLookup bool
	// DirCompleteness enables §5.1: DIR_COMPLETE tracking, readdir from
	// the cache, authoritative misses, and lookup-free creation.
	DirCompleteness bool
	// AggressiveNegatives enables §5.2's negative dentry policy: keep
	// negatives across unlink/rename and cache them on pseudo file
	// systems.
	AggressiveNegatives bool
	// DeepNegatives enables §5.2's deep negative dentries (requires
	// DirectLookup to be beneficial).
	DeepNegatives bool
	// SymlinkAliases enables §4.2's symlink alias dentries (requires
	// DirectLookup).
	SymlinkAliases bool
	// LexicalDotDot selects Plan 9 lexical ".." semantics on the
	// fastpath instead of Linux's extra per-dot-dot check.
	LexicalDotDot bool
}

// AllFeatures returns the full optimized feature set evaluated in the
// paper (Linux dot-dot semantics).
func AllFeatures() Features {
	return Features{
		DirectLookup:        true,
		DirCompleteness:     true,
		AggressiveNegatives: true,
		DeepNegatives:       true,
		SymlinkAliases:      true,
	}
}

// Config assembles a System.
type Config struct {
	// Features selects the cache design (zero value = baseline).
	Features Features
	// Era selects the baseline synchronization scheme.
	Era SyncEra
	// CacheCapacity bounds cached dentries (0 = unlimited).
	CacheCapacity int
	// PCCBytes sizes each per-credential prefix check cache (0 = 64 KiB,
	// the paper's configuration).
	PCCBytes int
	// SignatureSeed keys the path signature function; 0 draws a random
	// per-System key, as the paper does at boot. Fix only for tests.
	SignatureSeed uint64
	// PhaseTrace enables per-lookup phase timing (Figure 3); measurable
	// overhead, leave off except when profiling.
	PhaseTrace bool
	// ForcePCCMiss makes every fastpath authorization probe miss, so each
	// lookup pays the full fastpath cost and then the slow walk — the
	// worst case Figure 6 quantifies. Benchmarks only.
	ForcePCCMiss bool
	// Root supplies the root file system backend; nil means a fresh
	// in-memory backend.
	Root *Backend
}

// Baseline returns the unmodified-kernel configuration.
func Baseline() Config { return Config{} }

// Optimized returns the fully optimized configuration from the paper.
func Optimized() Config { return Config{Features: AllFeatures()} }

// System is one simulated kernel: a VFS with its directory cache, mount
// namespaces, and LSM stack. Create Processes with Start.
type System struct {
	k    *vfs.Kernel
	core *core.Core
	root *Backend
}

// New builds a System.
func New(cfg Config) *System {
	root := cfg.Root
	if root == nil {
		root = NewMemBackend(MemOptions{})
	}
	syncMode := vfs.SyncRCU
	switch cfg.Era {
	case EraBucketLock:
		syncMode = vfs.SyncBucketLock
	case EraBigLock:
		syncMode = vfs.SyncBigLock
	}
	k := vfs.NewKernel(vfs.Config{
		SyncMode:            syncMode,
		CacheCapacity:       cfg.CacheCapacity,
		DirCompleteness:     cfg.Features.DirCompleteness,
		AggressiveNegatives: cfg.Features.AggressiveNegatives,
		PhaseTrace:          cfg.PhaseTrace,
	}, root.fs)
	s := &System{k: k, root: root}
	if cfg.Features.DirectLookup {
		s.core = core.Install(k, core.Config{
			Seed:           cfg.SignatureSeed,
			PCCBytes:       cfg.PCCBytes,
			DeepNegatives:  cfg.Features.DeepNegatives,
			SymlinkAliases: cfg.Features.SymlinkAliases,
			LexicalDotDot:  cfg.Features.LexicalDotDot,
			ForcePCCMiss:   cfg.ForcePCCMiss,
		})
	}
	return s
}

// Start creates a process in the initial namespace, rooted at "/".
func (s *System) Start(c Creds) *Process {
	return &Process{sys: s, t: s.k.NewTask(c.toCred())}
}

// DropCaches evicts every evictable dentry (the experiment harness's
// cold-cache switch); returns the number evicted.
func (s *System) DropCaches() int { return s.k.DropCaches() }

// ShrinkCache evicts up to n cold dentries.
func (s *System) ShrinkCache(n int) int { return s.k.Shrink(n) }

// DentryCount reports the number of cached dentries.
func (s *System) DentryCount() int { return s.k.DentryCount() }

// SetPhaseSink registers fn to receive per-lookup phase timings when
// Config.PhaseTrace is on (Figure 3 instrumentation).
func (s *System) SetPhaseSink(fn func(PhaseTimes)) {
	s.k.SetPhaseSink(func(p vfs.PhaseTimes) {
		fn(PhaseTimes{
			Init:       p.Init,
			ScanHash:   p.ScanHash,
			HashLookup: p.HashLookup,
			PermCheck:  p.PermCheck,
			Finalize:   p.Finalize,
		})
	})
}
