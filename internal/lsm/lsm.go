// Package lsm is a Linux Security Modules-style hook framework (§4.1). A
// module can veto the VFS's default (DAC) decision for any inode access,
// including the per-component directory search checks that make up a prefix
// check. The optimized cache's PCC memoizes whatever these modules decide —
// the paper's point is that memoization at the credential level works for
// arbitrary LSM logic, not just Unix permission bits.
package lsm

import (
	"slices"
	"sync"
	"sync/atomic"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
)

// Mask is the access being requested.
type Mask uint8

// Access mask bits, mirroring MAY_READ/MAY_WRITE/MAY_EXEC.
const (
	MayExec Mask = 1 << iota
	MayWrite
	MayRead
)

// InodeView is the subset of inode state exposed to modules.
type InodeView struct {
	ID    fsapi.NodeID
	Mode  fsapi.Mode
	UID   uint32
	GID   uint32
	Label string // object security label (like an xattr-backed context)
}

// Module is a security module. InodePermission returns nil to allow, or an
// error (normally fsapi.EACCES) to deny; it runs after DAC, so it can only
// further restrict.
type Module interface {
	Name() string
	InodePermission(c *cred.Cred, inode InodeView, mask Mask) error
}

// Stack is an ordered set of modules, evaluated in registration order with
// deny-wins semantics. The zero value is an empty stack. Safe for
// concurrent Check against concurrent (rare) Register: the module list is
// copied on Register and published through one pointer, so Empty and Check
// — on every component of every prefix check — are one load, with no lock
// word for every core to write.
type Stack struct {
	mu      sync.Mutex // serializes Register
	modules atomic.Pointer[[]Module]
}

// list returns the registered modules; callers must not modify it.
func (s *Stack) list() []Module {
	if p := s.modules.Load(); p != nil {
		return *p
	}
	return nil
}

// Register appends a module.
func (s *Stack) Register(m Module) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mods := append(slices.Clip(s.list()), m) // clipped: append copies, readers keep theirs
	s.modules.Store(&mods)
}

// Names lists registered module names in order.
func (s *Stack) Names() []string {
	mods := s.list()
	out := make([]string, len(mods))
	for i, m := range mods {
		out[i] = m.Name()
	}
	return out
}

// Empty reports whether no modules are registered (fast path for Check).
func (s *Stack) Empty() bool { return len(s.list()) == 0 }

// Check runs every module; the first denial wins.
func (s *Stack) Check(c *cred.Cred, inode InodeView, mask Mask) error {
	for _, m := range s.list() {
		if err := m.InodePermission(c, inode, mask); err != nil {
			return err
		}
	}
	return nil
}
