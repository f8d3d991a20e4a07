// Package shard partitions the directory-cache namespace across N System
// instances — in-process first, then across dcserve endpoints over 9P —
// and keeps them coherent over the coherence journal's cursor
// subscription (Fletch-style: the journal is the invalidation channel
// between metadata servers).
//
// Routing is by consistent-hashed path signature: the routing key of an
// operation on path P is P's parent directory, so all bindings of one
// directory — the stats of its children and the listing that enumerates
// them — colocate on one shard. The owning shard walks the full path, so
// a warm cross-shard lookup is one DLHT probe there. Rename-heavy
// roots can be pinned: a pinned subtree never splits across shards, so
// its renames stay shard-local and publish nothing.
package shard

import (
	"fmt"
	"sort"
	"strings"

	"dircache/internal/sig"
)

// RouteSeed keys the ring's path-signature hash. Fixed, not per-boot:
// every router (and every future peer joining the tier) must agree on key
// placement, unlike the per-System signature keys which are deliberately
// unpredictable.
const RouteSeed = 0x5ead_c0de_0001

// vnodes is the virtual nodes per shard: enough that adding or removing a
// shard remaps close to the ideal K/N fraction of keys.
const vnodes = 64

type ringPoint struct {
	h     uint64
	shard int
}

type ringPin struct {
	root  string // canonical absolute path, no trailing slash
	shard int
}

// Ring is the consistent-hash routing table: shard membership, each
// member's virtual points on the 64-bit circle, and the pinned subtree
// roots that short-circuit hashing. Ring is not safe for concurrent
// mutation; the Router mutates it only at configuration time.
type Ring struct {
	key    *sig.Key
	shards []int
	points []ringPoint
	pins   []ringPin
}

// NewRing builds a ring over shards 0..n-1.
func NewRing(n int) *Ring {
	r := &Ring{key: sig.NewKey(RouteSeed)}
	for id := 0; id < n; id++ {
		r.AddShard(id)
	}
	return r
}

// hash64 places s on the ring circle: lane 1 of its keyed path signature,
// a full 64-bit lane (lane 0 lost its low bits to the DLHT index split),
// and the only lane computed.
func (r *Ring) hash64(s string) uint64 { return r.key.Lane1(s) }

// AddShard inserts a member and its virtual points. Idempotent.
func (r *Ring) AddShard(id int) {
	for _, s := range r.shards {
		if s == id {
			return
		}
	}
	r.shards = append(r.shards, id)
	sort.Ints(r.shards)
	for v := 0; v < vnodes; v++ {
		r.points = append(r.points, ringPoint{h: r.hash64(fmt.Sprintf("shard-%d/vnode-%d", id, v)), shard: id})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].h < r.points[b].h })
}

// RemoveShard drops a member and its points. Pins to the removed shard
// are dropped too — their subtrees fall back to hashing.
func (r *Ring) RemoveShard(id int) {
	out := r.shards[:0]
	for _, s := range r.shards {
		if s != id {
			out = append(out, s)
		}
	}
	r.shards = out
	pts := r.points[:0]
	for _, p := range r.points {
		if p.shard != id {
			pts = append(pts, p)
		}
	}
	r.points = pts
	pins := r.pins[:0]
	for _, p := range r.pins {
		if p.shard != id {
			pins = append(pins, p)
		}
	}
	r.pins = pins
}

// Shards returns the member ids, ascending.
func (r *Ring) Shards() []int { return append([]int(nil), r.shards...) }

// Pin routes the entire subtree at root (the root itself included) to
// shard, bypassing the hash. Use for rename-heavy roots: a pinned subtree
// never splits, so renames inside it stay shard-local. Longest pin wins
// when pins nest.
func (r *Ring) Pin(root string, shard int) {
	root = strings.TrimRight(root, "/")
	if root == "" {
		root = "/"
	}
	for i := range r.pins {
		if r.pins[i].root == root {
			r.pins[i].shard = shard
			return
		}
	}
	r.pins = append(r.pins, ringPin{root: root, shard: shard})
	sort.Slice(r.pins, func(a, b int) bool { return len(r.pins[a].root) > len(r.pins[b].root) })
}

// pinned returns the pin covering path (longest root first), if any.
func (r *Ring) pinned(path string) (int, bool) {
	for _, p := range r.pins {
		if path == p.root || strings.HasPrefix(path, p.root+"/") || p.root == "/" {
			return p.shard, true
		}
	}
	return 0, false
}

// hashOwner returns the shard owning a routing key by ring position: the
// first virtual point clockwise from the key's hash.
func (r *Ring) hashOwner(key string) int {
	if len(r.points) == 0 {
		return 0
	}
	h := r.hash64(key)
	// The first point with points[i].h >= h, wrapping to points[0].
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].h < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return r.points[lo].shard
}

// Owner routes an operation on path: a pinned subtree wins outright;
// otherwise the routing key is path's parent directory, so one directory's
// bindings (child stats and the listing enumerating them) colocate.
func (r *Ring) Owner(path string) int {
	if s, ok := r.pinned(path); ok {
		return s
	}
	return r.hashOwner(parentOf(path))
}

// OwnerDir routes a directory-listing operation on path: the key is the
// path itself, placing the listing with the bindings it enumerates.
func (r *Ring) OwnerDir(path string) int {
	if s, ok := r.pinned(path); ok {
		return s
	}
	return r.hashOwner(path)
}

// parentOf returns the parent directory of a canonical absolute path.
func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}
