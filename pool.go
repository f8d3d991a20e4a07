package dircache

import (
	"sync"
	"sync/atomic"

	"dircache/internal/cred"
)

// Identity is a committed credential shared across Processes. Processes
// started from one Identity share a single kernel credential object — and
// therefore one prefix check cache (§4.1), exactly like tasks related by
// fork. Network servers keep one Identity per principal (uname) so every
// connection attached as that principal warms the same PCC.
type Identity struct {
	c *cred.Cred
}

// NewIdentity commits c as a shared identity.
func NewIdentity(c Creds) *Identity { return &Identity{c: c.toCred()} }

// Creds returns the identity's credential values.
func (id *Identity) Creds() Creds {
	return Creds{UID: id.c.UID, GID: id.c.GID, Groups: append([]uint32(nil), id.c.Groups...), Label: id.c.Security}
}

// StartAs creates a process carrying the shared identity (and its PCC).
func (s *System) StartAs(id *Identity) *Process {
	return &Process{sys: s, t: s.k.NewTask(id.c)}
}

// ProcessPool recycles Processes (and their kernel Tasks) across
// attach/clunk churn, so a connection storm does not allocate and tear
// down a fresh Task per connection. Recycling resets the task to the
// initial namespace, rooted at "/", under the new identity.
type ProcessPool struct {
	sys *System

	mu      sync.Mutex
	free    []*Process
	maxIdle int

	gets    atomic.Int64
	reuses  atomic.Int64
	returns atomic.Int64
}

// NewProcessPool builds a pool over the System. maxIdle bounds how many
// idle Processes are parked (0 = 1024); beyond it, returned Processes
// exit instead of parking.
func (s *System) NewProcessPool(maxIdle int) *ProcessPool {
	if maxIdle <= 0 {
		maxIdle = 1024
	}
	return &ProcessPool{sys: s, maxIdle: maxIdle}
}

// Get returns a Process bound to the identity: a recycled one when the
// pool has an idle Process, a fresh one otherwise.
func (pl *ProcessPool) Get(id *Identity) *Process {
	pl.gets.Add(1)
	pl.mu.Lock()
	var p *Process
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
	}
	pl.mu.Unlock()
	if p != nil {
		pl.reuses.Add(1)
		p.t.Recycle(id.c)
		return p
	}
	return pl.sys.StartAs(id)
}

// GetCreds is Get with a one-off identity (no PCC sharing with other
// Processes beyond the cred-commit dedup).
func (pl *ProcessPool) GetCreds(c Creds) *Process { return pl.Get(NewIdentity(c)) }

// Put returns p to the pool for reuse. The caller must have closed every
// File and stopped issuing operations on p. When the pool is full the
// Process exits instead.
func (pl *ProcessPool) Put(p *Process) {
	pl.returns.Add(1)
	pl.mu.Lock()
	if len(pl.free) < pl.maxIdle {
		pl.free = append(pl.free, p)
		pl.mu.Unlock()
		return
	}
	pl.mu.Unlock()
	p.Exit()
}

// PoolStats counts pool traffic.
type PoolStats struct {
	Gets    int64 // Get calls
	Reuses  int64 // Gets answered by a recycled Process
	Returns int64 // Put calls
	Idle    int64 // Processes currently parked
}

// Stats snapshots the pool counters.
func (pl *ProcessPool) Stats() PoolStats {
	pl.mu.Lock()
	idle := int64(len(pl.free))
	pl.mu.Unlock()
	return PoolStats{
		Gets:    pl.gets.Load(),
		Reuses:  pl.reuses.Load(),
		Returns: pl.returns.Load(),
		Idle:    idle,
	}
}
