package bench

import (
	"fmt"

	"dircache"
	"dircache/internal/fsapi"
	"dircache/internal/shard"
)

// Shard-storm experiment: the sharded metadata tier. A 4-shard in-process
// deployment (internal/shard.NewLocalGroup) is driven against a 1-shard
// control over the same tree shape, measuring
//
//   - aggregate warm stat capacity: the sum of each shard's warm stat
//     rate measured in isolation. One machine core models one cache
//     instance per metadata node — shards in a real deployment run on
//     separate nodes, so tier capacity is the sum of per-node capacity,
//     not wall-clock parallelism on this box; and
//   - cross-shard rename coherence: every shard's cache is warmed on
//     every path, a rename storm runs through the router, the journal
//     subscription converges, and every shard — owner or not — must then
//     answer ENOENT for the old names and resolve the new ones. Stale
//     answers are counted (the acceptance bar is zero), and the group's
//     cross-shard audit (shard doctors + lag + claim-vs-truth probes)
//     must come back empty.
//
// The deterministic half — event counts, zero fallbacks, zero stale
// reads, ring balance and remap fractions — is asserted by
// TestShardTrajectory. The stat rates are a wall-clock sum of shards
// timed in isolation and are reported, not asserted; four shards live
// at once are measured by the shard_mix workload in benchmark/.

const (
	// shardStormShards is the tier size under test (acceptance: 4).
	shardStormShards = 4
	// shardStormApps is the number of application roots under /srv; each
	// is renamed during the storm. Two digits wide (app%02d), which
	// shardMovedPath relies on.
	shardStormApps = 12
	// shardStormPkgs and shardStormFiles shape each root: pkg dirs per
	// app, files per pkg — 12*4*4 = 192 files over 61 directories.
	shardStormPkgs  = 4
	shardStormFiles = 4
)

// shardStormConfig is the per-shard cache configuration: the optimized
// system with a fixed signature seed (reproducible DLHT layout; the
// routing ring uses its own fixed RouteSeed regardless).
func shardStormConfig() dircache.Config {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 0x5a4dca5e
	return cfg
}

// shardBuildTree populates the group's namespace through the router,
// one tree level per phase with a Converge between phases: a level's
// directories are created by their parents' owners, and a peer that
// holds the parent level DIR_COMPLETE from before this one existed has
// an authoritative listing only the pumped create events can reopen. It
// then warms each file's owning shard with two routed stats (fastpath
// admission wants a second touch). Returns the file paths and the
// directory count.
func shardBuildTree(g *shard.Group) (files []string, dirs int, err error) {
	mk := func(p string) error { dirs++; return g.Router.Mkdir(p, 0o755) }
	converge := func(phase string) error {
		if !g.Router.Converge(0) {
			return fmt.Errorf("%s phase did not converge", phase)
		}
		return nil
	}
	if err := mk("/srv"); err != nil {
		return nil, 0, err
	}
	if err := converge("root"); err != nil {
		return nil, 0, err
	}
	var apps, pkgs []string
	for a := 0; a < shardStormApps; a++ {
		apps = append(apps, fmt.Sprintf("/srv/app%02d", a))
	}
	for _, app := range apps {
		if err := mk(app); err != nil {
			return nil, 0, err
		}
		for p := 0; p < shardStormPkgs; p++ {
			pkgs = append(pkgs, fmt.Sprintf("%s/pkg%d", app, p))
		}
	}
	if err := converge("app"); err != nil {
		return nil, 0, err
	}
	for _, pkg := range pkgs {
		if err := mk(pkg); err != nil {
			return nil, 0, err
		}
		for f := 0; f < shardStormFiles; f++ {
			files = append(files, fmt.Sprintf("%s/file%d.go", pkg, f))
		}
	}
	if err := converge("pkg"); err != nil {
		return nil, 0, err
	}
	for _, f := range files {
		if err := g.Router.WriteFile(f, []byte("package x\n"), 0o644); err != nil {
			return nil, 0, err
		}
	}
	if err := converge("create"); err != nil {
		return nil, 0, err
	}
	for pass := 0; pass < 2; pass++ {
		for _, f := range files {
			if _, err := g.Router.Stat(f); err != nil {
				return nil, 0, err
			}
		}
	}
	return files, dirs, nil
}

// shardAggRate measures the tier's aggregate warm stat capacity: each
// shard's routed stat rate over the files it owns, measured serially in
// isolation, summed. Returns the aggregate rate (stats/s) and the
// per-shard owned-file counts (the ring's placement of this tree).
func shardAggRate(sc Scale, g *shard.Group, files []string) (float64, []int) {
	owned := make([][]string, len(g.Systems))
	for _, f := range files {
		id := g.Router.Owner(f)
		owned[id] = append(owned[id], f)
	}
	counts := make([]int, len(owned))
	total := 0.0
	for id, fs := range owned {
		counts[id] = len(fs)
		if len(fs) == 0 {
			continue
		}
		ns := nsPerOp(sc.MinMeasure, func(n int) {
			for i := 0; i < n; i++ {
				g.Router.Stat(fs[i%len(fs)])
			}
		})
		if ns > 0 {
			total += 1e9 / ns
		}
	}
	return total, counts
}

// shardMovedPath maps a pre-storm file path to its post-storm location:
// the storm renames each app root "/srv/appNN" to "/srv/appNN-m", and
// with app%02d the root is exactly the first 10 bytes of every path.
func shardMovedPath(f string) string {
	const rootLen = len("/srv/app00")
	return f[:rootLen] + "-m" + f[rootLen:]
}

// runShardStorm drives both deployments and returns every metric,
// deterministic and timed, keyed "shard/...".
func runShardStorm(sc Scale) (map[string]float64, error) {
	out := map[string]float64{}

	// 1-shard control: same tree, same router machinery, one instance.
	g1 := shard.NewLocalGroup(1, shardStormConfig(), shard.Options{})
	defer g1.Close()
	files1, _, err := shardBuildTree(g1)
	if err != nil {
		return nil, fmt.Errorf("1-shard build: %w", err)
	}
	agg1, _ := shardAggRate(sc, g1, files1)

	// The tier under test.
	g := shard.NewLocalGroup(shardStormShards, shardStormConfig(), shard.Options{})
	defer g.Close()
	files, dirs, err := shardBuildTree(g)
	if err != nil {
		return nil, fmt.Errorf("%d-shard build: %w", shardStormShards, err)
	}
	agg4, counts := shardAggRate(sc, g, files)

	// Warm EVERY shard on every path, so each holds the soon-to-be-stale
	// subtrees; only the journal-driven invalidations can keep the
	// post-storm answers honest.
	for _, l := range g.Locals {
		for _, f := range files {
			if _, err := l.Lstat(f); err != nil {
				return nil, fmt.Errorf("warm %s: %w", f, err)
			}
		}
	}

	// Rename storm through the router; converge over the subscription.
	for a := 0; a < shardStormApps; a++ {
		old := fmt.Sprintf("/srv/app%02d", a)
		if err := g.Router.Rename(old, old+"-m"); err != nil {
			return nil, fmt.Errorf("rename %s: %w", old, err)
		}
	}
	if !g.Router.Converge(0) {
		return nil, fmt.Errorf("rename storm did not converge")
	}

	// Zero stale reads: every shard, owner or not, must answer ENOENT for
	// every old name and resolve every new one.
	stale := 0
	for _, l := range g.Locals {
		for _, f := range files {
			if _, err := l.Lstat(f); fsapi.ToErrno(err) != fsapi.ENOENT {
				stale++
			}
			if _, err := l.Lstat(shardMovedPath(f)); err != nil {
				stale++
			}
		}
	}

	lag := 0
	for _, n := range g.Router.Lag() {
		lag += n
	}
	published, applied, fallbacks := g.Router.Stats()
	findings := g.Audit()

	// Ring placement properties over this tree's keys: how unevenly the
	// files land (max shard share), and what fraction of them would move
	// if a fifth shard joined (consistent hashing: ~1/5, not ~everything).
	maxOwned := 0
	for _, c := range counts {
		if c > maxOwned {
			maxOwned = c
		}
	}
	r4 := shard.NewRing(shardStormShards)
	r5 := shard.NewRing(shardStormShards + 1)
	moved := 0
	for _, f := range files {
		if r4.Owner(f) != r5.Owner(f) {
			moved++
		}
	}

	out["shard/shards"] = shardStormShards
	out["shard/files"] = float64(len(files))
	out["shard/dirs"] = float64(dirs)
	out["shard/renames"] = shardStormApps
	out["shard/published"] = float64(published)
	out["shard/applied"] = float64(applied)
	out["shard/fallbacks"] = float64(fallbacks)
	out["shard/stale_reads"] = float64(stale)
	out["shard/audit_findings"] = float64(len(findings))
	out["shard/lag_after_converge"] = float64(lag)
	out["shard/balance_max_share"] = float64(maxOwned) / float64(len(files))
	out["shard/remap_4to5"] = float64(moved) / float64(len(files))

	// Timed, not asserted.
	out["shard/agg_statps_1"] = agg1
	out["shard/agg_statps_4"] = agg4
	if agg1 > 0 {
		out["shard/speedup"] = agg4 / agg1
	}
	return out, nil
}

// Shardstorm reports the sharded-tier experiment: aggregate warm stat
// capacity of 4 shards vs 1, and the cross-shard rename storm's
// coherence outcome.
func Shardstorm(sc Scale) (*Report, error) {
	r := newReport("shardstorm", "sharded metadata tier: aggregate warm stats, cross-shard rename coherence",
		"deployment", "shards", "files", "agg stat/s", "detail")
	res, err := runShardStorm(sc)
	if err != nil {
		return nil, err
	}
	for k, v := range res {
		r.put(k, v)
	}
	r.add("control", "1", fmt.Sprintf("%.0f", res["shard/files"]),
		fmt.Sprintf("%.0f", res["shard/agg_statps_1"]), "single instance, whole namespace")
	r.add("tier", fmt.Sprintf("%d", shardStormShards), fmt.Sprintf("%.0f", res["shard/files"]),
		fmt.Sprintf("%.0f", res["shard/agg_statps_4"]),
		fmt.Sprintf("max shard share %.2f, remap to 5 shards %.2f",
			res["shard/balance_max_share"], res["shard/remap_4to5"]))
	r.add("storm", fmt.Sprintf("%d", shardStormShards), fmt.Sprintf("%.0f", res["shard/renames"]),
		"-", fmt.Sprintf("published=%.0f applied=%.0f fallbacks=%.0f stale=%.0f",
			res["shard/published"], res["shard/applied"],
			res["shard/fallbacks"], res["shard/stale_reads"]))

	if sp := res["shard/speedup"]; sp >= 3 {
		r.note("%d shards deliver %.2fx the 1-shard aggregate warm stat rate "+
			"(sum of per-shard isolated rates — one core models one instance per node; acceptance: >= 3x)",
			shardStormShards, sp)
	} else {
		r.note("WARNING: aggregate speedup %.2fx below the 3x acceptance bar", res["shard/speedup"])
	}
	if res["shard/stale_reads"] == 0 && res["shard/audit_findings"] == 0 {
		r.note("rename storm converged with zero stale reads on every shard; cross-shard audit clean "+
			"(%.0f journal events published, %.0f peer invalidations applied, %.0f fell-behind fallbacks)",
			res["shard/published"], res["shard/applied"], res["shard/fallbacks"])
	} else {
		r.note("WARNING: %.0f stale reads, %.0f audit findings after convergence",
			res["shard/stale_reads"], res["shard/audit_findings"])
	}
	r.note("counts are deterministic (TestShardTrajectory); stat rates are wall-clock and not gated")
	return r, nil
}
