package vfs

// Helpers for the fastpath hooks (internal/core) to materialize the §4.2
// and §5.2 special dentry kinds. They are ordinary cache citizens (LRU,
// parent child maps, hook state) but only enter the (parent, name) hash
// table when the slow walk could legitimately probe for them.

// AddSpecialNegative installs a negative dentry named name under parent.
// When parent is itself negative or a non-directory, the child is a "deep"
// negative (§5.2) and stays out of the slow-walk hash table (the slow walk
// stops at parent before ever probing below it). notDir marks an ENOTDIR
// failure dentry. Returns the installed dentry (an existing one if the
// path raced), or nil when parent is dead.
func (k *Kernel) AddSpecialNegative(parent *Dentry, name string, notDir bool) *Dentry {
	if parent.IsDead() {
		return nil
	}
	parent.mu.Lock()
	if cur, ok := parent.children[name]; ok && !cur.IsDead() {
		parent.mu.Unlock()
		return cur
	}
	parent.mu.Unlock()

	deep := parent.IsNegative() || !parent.IsDir()

	k.cacheMutBegin()
	defer k.cacheMutEnd()
	d := k.newDentry(parent.sb, parent, name)
	d.setFlags(DNegative)
	if deep {
		d.setFlags(DDeepNegative)
	}
	if notDir {
		d.setFlags(DNotDir)
	}
	k.lru.add(d)
	return k.installDedup(parent, name, d, !deep)
}

// AddAlias installs a symlink-alias dentry (§4.2) named name under parent
// (a symlink dentry or another alias), redirecting to target. Aliases
// never enter the slow-walk hash table: the slow walk resolves symlinks
// before probing under them.
func (k *Kernel) AddAlias(parent *Dentry, name string, target *Dentry) *Dentry {
	if parent.IsDead() || target == nil || target.IsDead() {
		return nil
	}
	parent.mu.Lock()
	if cur, ok := parent.children[name]; ok && !cur.IsDead() {
		parent.mu.Unlock()
		if cur.Flags()&DAlias != 0 {
			// Refresh the redirect in case the target dentry changed.
			cur.setTarget(target)
			return cur
		}
		return cur
	}
	parent.mu.Unlock()

	k.cacheMutBegin()
	defer k.cacheMutEnd()
	d := k.newDentry(parent.sb, parent, name)
	d.setFlags(DAlias)
	d.setTarget(target)
	k.lru.add(d)
	return k.installDedup(parent, name, d, false)
}
