package main

import (
	"errors"
	"fmt"

	"dircache"
	"dircache/internal/shard"
)

// shardShards is the size of the tier; all of them are live at once.
const shardShards = 4

// sharded is a four-shard in-process tier driven through its Router by
// one worker. Every mutating op pumps the coherence journal inside its
// timed span: a mutation is done when its invalidations have reached the
// other shards. When invalidation becomes synchronous its cost moves from
// the pump to the mutation, still inside the span.
type sharded struct {
	s  *stream
	lv *live
	g  *shard.Group
	// lagMax is the highest journal lag seen just before a traced pump.
	lagMax int
}

// routerBuilder materializes a model through the router, converging
// between levels: a peer that listed the parent level before this one
// existed holds an authoritative listing only the pumped create events
// reopen.
type routerBuilder struct{ r *shard.Router }

func (b routerBuilder) Mkdir(p string, perm uint32) error { return b.r.Mkdir(p, perm) }
func (b routerBuilder) WriteFile(p string, d []byte, perm uint32) error {
	return b.r.WriteFile(p, d, perm)
}
func (b routerBuilder) Symlink(string, string) error {
	return errors.New("benchmark: the router has no symlink call")
}
func (b routerBuilder) levelDone() error {
	if !b.r.Converge(0) {
		return errors.New("benchmark: shard tier did not converge during set-up")
	}
	return nil
}

func buildSharded(s *stream, cfg dircache.Config) (*sharded, error) {
	g := shard.NewLocalGroup(shardShards, cfg, shard.Options{})
	if err := s.m.materialize(routerBuilder{g.Router}); err != nil {
		g.Close()
		return nil, err
	}
	return &sharded{s: s, lv: newLive(s), g: g}, nil
}

func (in *sharded) workers() int                { return 1 }
func (in *sharded) systems() []*dircache.System { return in.g.Systems }
func (in *sharded) close()                      { in.g.Close() }

func (in *sharded) counters() map[string]float64 {
	pub, app, fall := in.g.Router.Stats()
	return map[string]float64{
		"shard.published": float64(pub),
		"shard.applied":   float64(app),
		"shard.fallbacks": float64(fall),
	}
}

// verify converges the tier, runs the group's audit, and then scans every
// path the stream knows on every shard: no shard's cache may claim a path
// exists when the backend says it does not, or the reverse.
func (in *sharded) verify() []string {
	var out []string
	if !in.g.Router.Converge(0) {
		out = append(out, "shard tier did not converge")
	}
	for _, f := range in.g.Audit() {
		out = append(out, f.String())
	}
	for _, t := range in.s.targets {
		p := t.path
		exists, err := in.g.Truth(p)
		if err != nil {
			out = append(out, fmt.Sprintf("truth %s: %v", p, err))
			continue
		}
		for i, l := range in.g.Locals {
			c := l.Claim(p)
			if c == dircache.ClaimPositive && !exists || c == dircache.ClaimNegative && exists {
				out = append(out, fmt.Sprintf("shard %d holds a stale %v claim on %s", i, c, p))
			}
		}
	}
	return out
}

func (in *sharded) pump(tr *tracer, root uint32) {
	if tr != nil {
		for _, n := range in.g.Router.Lag() {
			in.lagMax = max(in.lagMax, n)
		}
	}
	sp := tr.begin("shard.pump", root)
	in.g.Router.Pump()
	tr.end(sp)
}

func (in *sharded) exec(_ int, o op, tr *tracer) bool {
	root := tr.beginOp()
	defer tr.end(root)
	r := in.g.Router
	switch o.class {
	case cStat:
		t := &in.s.targets[o.idx]
		if tr == nil {
			fi, err := r.Stat(t.path)
			return in.lv.matches(t, fi, err)
		}
		// Router.Stat in its two steps, so that each gets a span.
		sp := tr.begin("shard.route", root)
		owner := r.Shards()[r.Owner(t.path)]
		tr.end(sp)
		sp = tr.begin("shard.owner_call", root)
		fi, err := owner.Stat(t.path)
		tr.end(sp)
		return in.lv.matches(t, fi, err)
	case cToggle:
		t := &in.s.pool[o.idx]
		sp := tr.begin("shard.owner_call", root)
		var err error
		if in.lv.pool[o.idx] {
			err = r.Unlink(t.path)
		} else {
			err = r.WriteFile(t.path, tmpData, filePerm)
		}
		tr.end(sp)
		if err != nil {
			return false
		}
		in.lv.pool[o.idx] = !in.lv.pool[o.idx]
		in.pump(tr, root)
		return true
	case cChmodDir:
		t := &in.s.targets[o.idx]
		sp := tr.begin("shard.owner_call", root)
		err := r.Chmod(t.path, in.lv.toggledPerm(t.ref))
		tr.end(sp)
		in.pump(tr, root)
		return err == nil
	case cRenameDir:
		t := &in.s.targets[o.idx]
		for _, mv := range [2][2]string{{t.path, t.path + ".mv"}, {t.path + ".mv", t.path}} {
			sp := tr.begin("shard.owner_call", root)
			err := r.Rename(mv[0], mv[1])
			tr.end(sp)
			in.pump(tr, root)
			if err != nil {
				return false
			}
		}
		return true
	}
	return false
}
