package bench

import (
	"fmt"
	"time"

	"dircache"
	"dircache/internal/workload"
)

// AblateFeatures measures each optimization's individual contribution on a
// representative warm workload mix (the design-choice accounting DESIGN.md
// calls for; the paper evaluates the full set, §6, and credits individual
// mechanisms qualitatively).
func AblateFeatures(sc Scale) (*Report, error) {
	r := newReport("ablate", "per-feature contribution on a warm metadata mix",
		"config", "mix ms", "vs baseline", "components")
	configs := []struct {
		name string
		feat dircache.Features
	}{
		{"baseline", dircache.Features{}},
		{"+direct-lookup", dircache.Features{DirectLookup: true}},
		{"+completeness", dircache.Features{DirectLookup: true, DirCompleteness: true}},
		{"+aggr-negatives", dircache.Features{DirectLookup: true, DirCompleteness: true,
			AggressiveNegatives: true}},
		{"+deep-negatives", dircache.Features{DirectLookup: true, DirCompleteness: true,
			AggressiveNegatives: true, DeepNegatives: true}},
		{"+aliases (all)", dircache.AllFeatures()},
	}

	var base float64
	for i, cfg := range configs {
		c := dircache.Config{Features: cfg.feat, SignatureSeed: 0xab1a7e}
		sys := dircache.New(c)
		p := sys.Start(dircache.RootCreds())
		tree, err := workload.GenerateSource(p, "/src", sc.Tree)
		if err != nil {
			return nil, err
		}
		if err := p.Symlink("/src", "/srclink"); err != nil {
			return nil, err
		}
		w := workload.NewProc(p)
		if _, err := runMix(w, tree); err != nil { // warm
			return nil, err
		}
		before := sys.Stats()
		ns, err := runMix(w, tree)
		if err != nil {
			return nil, err
		}
		d := sys.Stats().Delta(before)
		if i == 0 {
			base = ns
		}
		r.add(cfg.name, fmt.Sprintf("%.3f", ns/1e6), fmtGain(base, ns), fmt.Sprintf("%d", d.Components))
		r.put("mix/"+cfg.name, ns)
		r.put("mix/"+cfg.name+"/components", float64(d.Components))
	}
	r.note("mix: deep stats + missing-header probes + listings + symlinked stats, all warm")
	return r, nil
}

// runMix executes a fixed metadata mix and returns elapsed nanoseconds.
func runMix(w *workload.Proc, tree *workload.Tree) (float64, error) {
	t0 := time.Now()
	// Deep warm stats (direct lookup's case).
	for _, f := range tree.Files {
		if _, err := w.Lstat(f); err != nil {
			return 0, err
		}
	}
	// Missing-header probes (negative dentries, deep negatives).
	for i, f := range tree.Files {
		if i%3 != 0 {
			continue
		}
		w.Stat(f + ".ghost")
		w.Stat("/src/include/missing/" + stemOf(f) + ".h")
	}
	// Listings (completeness).
	for i, d := range tree.Dirs {
		if i%2 != 0 {
			continue
		}
		if _, err := w.ReadDir(d); err != nil {
			return 0, err
		}
	}
	// Stats through a directory symlink (aliases).
	for i, f := range tree.Files {
		if i%5 != 0 {
			continue
		}
		w.Stat("/srclink" + f[len("/src"):])
	}
	return float64(time.Since(t0)), nil
}

// stemOf extracts the file stem (final component without extension).
func stemOf(path string) string {
	i := len(path) - 1
	for i >= 0 && path[i] != '/' {
		i--
	}
	name := path[i+1:]
	for j := len(name) - 1; j > 0; j-- {
		if name[j] == '.' {
			return name[:j]
		}
	}
	return name
}

// AblatePCC reproduces the paper's PCC-size sensitivity observation
// (§6.1): when the working set of directories exceeds the PCC, first
// lookups in newly revisited directories miss it and updatedb's gain
// shrinks (paper: 29% -> 16.5% at 2x the PCC). In the paper such a miss
// falls back to the slow path; here a PCC miss on a DLHT hit re-checks the
// prefix in place (an O(depth) climb of search checks, no component
// lookups), so the capacity misses show as prefix re-checks, not slow
// walks, and cost the gain less.
func AblatePCC(sc Scale) (*Report, error) {
	r := newReport("ablate-pcc", "updatedb gain vs prefix check cache size",
		"PCC size", "updatedb ms", "slow walks", "prefix re-checks", "gain vs baseline")

	baseNS, _, err := updatedbPass(dircache.Baseline(), sc)
	if err != nil {
		return nil, err
	}
	r.add("(baseline)", fmt.Sprintf("%.3f", baseNS/1e6), "-", "-", "")
	r.put("ns/baseline", baseNS)

	for _, pccBytes := range []int{1 << 9, 1 << 12, 64 << 10} {
		cfg := dircache.Optimized()
		cfg.SignatureSeed = 0xcc
		cfg.PCCBytes = pccBytes
		ns, d, err := updatedbPass(cfg, sc)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d KiB", pccBytes/1024)
		if pccBytes < 1024 {
			label = fmt.Sprintf("%d B", pccBytes)
		}
		r.add(label, fmt.Sprintf("%.3f", ns/1e6),
			fmt.Sprintf("%d", d.SlowWalks), fmt.Sprintf("%d", d.PrefixRechecks), fmtGain(baseNS, ns))
		r.put(fmt.Sprintf("ns/%d", pccBytes), ns)
		r.put(fmt.Sprintf("slow/%d", pccBytes), float64(d.SlowWalks))
		r.put(fmt.Sprintf("rechecks/%d", pccBytes), float64(d.PrefixRechecks))
	}
	r.note("paper: a PCC smaller than the directory working set halves updatedb's gain (its PCC misses slow-walk; ours re-check the prefix in place)")
	return r, nil
}

// updatedbPass builds AblatePCC's /usr tree on a new system, runs updatedb
// over it once to warm the cache and once more measured, and returns the
// measured pass's time with the work counted over it.
func updatedbPass(cfg dircache.Config, sc Scale) (float64, dircache.CacheStats, error) {
	sys := dircache.New(cfg)
	p := sys.Start(dircache.RootCreds())
	if _, err := workload.GenerateUsr(p, "/usr", sc.UsrScale*4); err != nil {
		return 0, dircache.CacheStats{}, err
	}
	p.MkdirAll("/var/lib", 0o755)
	if _, err := workload.UpdateDB(workload.NewProc(p), "/usr", "/var/lib/db"); err != nil {
		return 0, dircache.CacheStats{}, err
	}
	before := sys.Stats()
	rep, err := workload.UpdateDB(workload.NewProc(p), "/usr", "/var/lib/db")
	return float64(rep.Elapsed), sys.Stats().Delta(before), err
}
