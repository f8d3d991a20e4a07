package shard

import (
	"sync"

	"dircache"
	"dircache/internal/audit"
	"dircache/internal/fsapi"
)

// Group is the in-process deployment: N System instances sharing one
// backend (each with its own private directory cache — the sharded-tier
// model collapsed into one address space), a Router fronting them, and a
// cache-less oracle Process over the same backend serving the cross-shard
// audit's ground truth. The oracle is built on the first Truth or Audit:
// a group that never audits never pays for it.
type Group struct {
	Backend *dircache.Backend
	Systems []*dircache.System
	Locals  []*Local
	Router  *Router

	ocfg   dircache.Config
	once   sync.Once
	oracle *dircache.System
	op     *dircache.Process
}

// NewLocalGroup builds n shards over one shared backend. base supplies
// the per-shard cache configuration (Root is overridden with the shared
// backend). Each shard gets telemetry of its own, which the shard's Doctor
// cross-checks and dcsh top read; coherence needs neither. The oracle has
// none.
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
		sys := dircache.New(cfg)
		sys.EnableTelemetry(dircache.TelemetryOptions{})
		l := NewLocal(sys)
		g.Systems = append(g.Systems, sys)
		g.Locals = append(g.Locals, l)
		shards = append(shards, l)
	}
	g.Router = NewRouter(shards, opt)
	g.ocfg = base
	g.ocfg.Root = backend
	return g
}

// oracleProc returns the oracle's process, building the oracle on first
// use: a separate System over the same backend; dropped cold before each
// audit, its answers are ground truth.
func (g *Group) oracleProc() *dircache.Process {
	g.once.Do(func() {
		g.oracle = dircache.New(g.ocfg)
		g.op = g.oracle.Start(dircache.RootCreds())
	})
	return g.op
}

// Truth reports ground truth for path by asking the shared backend
// through the cold oracle. Call Group.Audit instead for a full pass.
func (g *Group) Truth(path string) (bool, error) {
	_, err := g.oracleProc().Lstat(path)
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
	g.oracleProc()
	g.oracle.DropCaches()
	return g.Router.Audit(g.Truth)
}

// Close closes the router (and so every shard) and the oracle, if it was
// built. It must not race a Truth or an Audit.
func (g *Group) Close() error {
	err := g.Router.Close()
	if g.op != nil {
		g.op.Exit()
	}
	return err
}
