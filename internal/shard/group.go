package shard

import (
	"dircache"
	"dircache/internal/audit"
	"dircache/internal/fsapi"
)

// Group is the in-process deployment: N System instances sharing one
// backend (each with its own private directory cache — the sharded-tier
// model collapsed into one address space), a Router fronting them, and a
// cache-less oracle Process over the same backend serving the cross-shard
// audit's ground truth.
type Group struct {
	Backend *dircache.Backend
	Systems []*dircache.System
	Locals  []*Local
	Router  *Router

	oracle *dircache.System
	op     *dircache.Process
}

// NewLocalGroup builds n shards over one shared backend. base supplies
// the per-shard cache configuration (Root and Telemetry are overridden:
// each shard gets the shared backend and telemetry of its own, which the
// shard's Doctor cross-checks and dcsh top read; coherence needs neither).
func NewLocalGroup(n int, base dircache.Config, opt Options) *Group {
	g := &Group{}
	backend := base.Root
	if backend == nil {
		backend = dircache.NewMemBackend(dircache.MemOptions{})
	}
	g.Backend = backend
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Root = backend
		cfg.Telemetry.Enabled = true
		sys := dircache.New(cfg)
		l := NewLocal(sys)
		g.Systems = append(g.Systems, sys)
		g.Locals = append(g.Locals, l)
		shards = append(shards, l)
	}
	g.Router = NewRouter(shards, opt)
	// The oracle is a separate System over the same backend; dropped cold
	// before each audit, its answers are ground truth.
	ocfg := base
	ocfg.Root = backend
	ocfg.Telemetry = dircache.TelemetryOptions{}
	g.oracle = dircache.New(ocfg)
	g.op = g.oracle.Start(dircache.RootCreds())
	return g
}

// Truth reports ground truth for path by asking the shared backend
// through the cold oracle. Call Group.Audit instead for a full pass.
func (g *Group) Truth(path string) (bool, error) {
	_, err := g.op.Lstat(path)
	if err == nil {
		return true, nil
	}
	if fsapi.ToErrno(err) == fsapi.ENOENT {
		return false, nil
	}
	return false, err
}

// Audit converges nothing — callers Pump/Converge first — then runs the
// cross-shard checks against a freshly cold oracle plus each shard's own
// doctor.
func (g *Group) Audit() []audit.Finding {
	g.oracle.DropCaches()
	return g.Router.Audit(g.Truth)
}

// Close closes the router (and so every shard) and the oracle.
func (g *Group) Close() error {
	err := g.Router.Close()
	g.op.Exit()
	return err
}
