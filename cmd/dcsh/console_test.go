package main

import (
	"testing"
	"time"

	"dircache"
	"dircache/internal/shard"
)

// TestConsoleCommands smoke-tests the ops console against a live traced
// kernel: 'top' must render rate windows without telemetry being nil-safe
// by accident, and 'slow' must dump the flight recorder once a traced
// walk qualifies.
func TestConsoleCommands(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	sys.EnableTelemetry(dircache.TelemetryOptions{TraceSample: 1})
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	sys.Telemetry().SetSlowThreshold(0) // flight-record everything

	if err := p.MkdirAll("/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile("/a/b/c/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := p.Stat("/a/b/c/f"); err != nil {
			t.Fatal(err)
		}
	}

	old := topInterval
	topInterval = time.Millisecond
	defer func() { topInterval = old }()
	if err := runCommand(sys, p, []string{"top", "2"}); err != nil {
		t.Fatalf("top: %v", err)
	}
	if err := runCommand(sys, p, []string{"slow"}); err != nil {
		t.Fatalf("slow: %v", err)
	}
	if n, _ := sys.Telemetry().SlowTraces(); len(n) == 0 {
		t.Fatal("no flight-recorded traces after traced walks at threshold 0")
	}

	// Without telemetry both commands refuse instead of crashing.
	bare := dircache.New(dircache.Optimized())
	bp := bare.Start(dircache.RootCreds())
	defer bp.Exit()
	if err := runCommand(bare, bp, []string{"top"}); err == nil {
		t.Fatal("top on a telemetry-less kernel did not refuse")
	}
	if err := runCommand(bare, bp, []string{"slow"}); err == nil {
		t.Fatal("slow on a telemetry-less kernel did not refuse")
	}
}

// TestConsoleSharded drives 'top' and 'pump' with a live sharded tier:
// top must sample and render every shard (not just shard 0), and pump
// must drain the coherence records a shard-0 mutation published.
func TestConsoleSharded(t *testing.T) {
	g := shard.NewLocalGroup(3, dircache.Optimized(), shard.Options{})
	defer g.Close()
	shardSystems = g.Systems
	shardRouter = g.Router
	defer func() { shardSystems, shardRouter = nil, nil }()

	sys := g.Systems[0]
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	if err := g.Locals[0].MkdirAll("/srv/a", 0o755); err != nil {
		t.Fatal(err)
	}
	if lag := shardRouter.Lag(); lag[0] == 0 {
		t.Fatal("shard 0 published no coherence records after MkdirAll")
	}

	old := topInterval
	topInterval = time.Millisecond
	defer func() { topInterval = old }()
	if err := runCommand(sys, p, []string{"top", "1"}); err != nil {
		t.Fatalf("sharded top: %v", err)
	}
	if got := len(topSnapshot(topSystems(sys)).shards); got != 3 {
		t.Fatalf("top sampled %d shards, want 3", got)
	}

	if err := runCommand(sys, p, []string{"pump"}); err != nil {
		t.Fatalf("pump: %v", err)
	}
	for i, lag := range shardRouter.Lag() {
		if lag != 0 {
			t.Fatalf("shard %d coherence lag %d after pump", i, lag)
		}
	}
}

// TestConsolePumpUnsharded: pump without a tier refuses cleanly.
func TestConsolePumpUnsharded(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	if err := runCommand(sys, p, []string{"pump"}); err == nil {
		t.Fatal("pump without -shards did not refuse")
	}
}
