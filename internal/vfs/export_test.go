package vfs

// SkewLRUCount makes the LRU's count disagree with its membership flags by
// delta — the miscounted add/remove the auditor's lru_census check exists
// to catch, fabricated after the fact so no production path carries a hook.
func (k *Kernel) SkewLRUCount(delta int64) { k.lru.count.Add(delta) }
