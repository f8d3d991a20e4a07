package shard

// dropPending is the pump's one injected fault: every record the shards
// have published so far is consumed — each cursor jumps to its log's head —
// and applied to no one, which is what a pump that read its batch and lost
// it leaves behind. The Router carries no switch for it: the fault is made
// after the fact, between the mutations and the next Pump.
func (r *Router) dropPending() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, src := range r.shards {
		_, r.cursors[i], _ = src.EventsSince(r.cursors[i])
	}
}
