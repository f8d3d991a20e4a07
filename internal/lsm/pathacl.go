package lsm

import (
	"strings"
	"sync"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
)

// PathModule is the optional interface for modules that mediate by
// pathname (AppArmor-style) rather than by inode attributes. The VFS
// consults it at open time with the object's canonical path; pathname
// checks sit outside the dcache fastpath (they are per-open, not
// per-component), which is exactly why the paper's PCC — which memoizes
// the per-component search checks — composes with them unchanged.
type PathModule interface {
	PathPermission(c *cred.Cred, path string, mask Mask) error
}

// CheckPath runs every registered module that mediates by pathname; the
// first denial wins.
func (s *Stack) CheckPath(c *cred.Cred, path string, mask Mask) error {
	for _, m := range s.list() {
		if pm, ok := m.(PathModule); ok {
			if err := pm.PathPermission(c, path, mask); err != nil {
				return err
			}
		}
	}
	return nil
}

// pathRule grants a mask under a path prefix.
type pathRule struct {
	prefix string
	mask   Mask
}

// PathACL is an AppArmor-like profile set: confined subjects (non-empty
// credential security labels with a registered profile) may only open
// paths matched by an allow rule; everything else is denied. Subjects
// without a profile are unconfined.
type PathACL struct {
	mu       sync.RWMutex
	profiles map[string][]pathRule
}

// NewPathACL creates an empty profile set.
func NewPathACL() *PathACL {
	return &PathACL{profiles: make(map[string][]pathRule)}
}

// Allow grants subject-labelled processes the mask under prefix (a path
// prefix matched at component granularity: "/srv/www" matches
// "/srv/www/a" but not "/srv/wwwroot").
func (p *PathACL) Allow(subject, prefix string, mask Mask) {
	p.mu.Lock()
	p.profiles[subject] = append(p.profiles[subject], pathRule{prefix: prefix, mask: mask})
	p.mu.Unlock()
}

// Name implements Module.
func (p *PathACL) Name() string { return "pathacl" }

// InodePermission implements Module: pathname mediation doesn't constrain
// inode-level search checks.
func (p *PathACL) InodePermission(*cred.Cred, InodeView, Mask) error { return nil }

// PathPermission implements PathModule.
func (p *PathACL) PathPermission(c *cred.Cred, path string, mask Mask) error {
	if c.Security == "" {
		return nil // unconfined
	}
	p.mu.RLock()
	rules, confined := p.profiles[c.Security]
	p.mu.RUnlock()
	if !confined {
		return nil // no profile: unconfined subject label
	}
	var granted Mask
	for _, r := range rules {
		if prefixMatch(r.prefix, path) {
			granted |= r.mask
		}
	}
	if granted&mask == mask {
		return nil
	}
	return fsapi.EACCES
}

// prefixMatch reports whether path lies under prefix at component
// boundaries.
func prefixMatch(prefix, path string) bool {
	if prefix == "/" {
		return true
	}
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	return len(path) == len(prefix) || path[len(prefix)] == '/'
}
