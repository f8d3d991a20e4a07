package bench

import (
	"fmt"
	"time"

	"dircache"
	"dircache/internal/workload"
)

// appCase is one application emulator wired for the Figure 1 / Table 1 /
// Table 2 suites. pre (optional) restores preconditions outside the
// measured pass; run executes one measured pass and must be repeatable.
type appCase struct {
	name string
	pre  func(env *appEnv) error
	run  func(env *appEnv, w *workload.Proc) (workload.Report, error)
}

// appEnv is the per-system state shared by the app suite.
type appEnv struct {
	sys   *dircache.System
	root  *dircache.Process
	tree  *workload.Tree // source tree at /src
	usr   *workload.Tree // /usr tree for updatedb
	runID int
}

func newAppEnv(sys *dircache.System, sc Scale) (*appEnv, error) {
	env := &appEnv{sys: sys, root: sys.Start(dircache.RootCreds())}
	var err error
	env.tree, err = workload.GenerateSource(env.root, "/src", sc.Tree)
	if err != nil {
		return nil, err
	}
	env.usr, err = workload.GenerateUsr(env.root, "/usr", sc.UsrScale)
	if err != nil {
		return nil, err
	}
	if err := env.root.MkdirAll("/var/lib", 0o755); err != nil {
		return nil, err
	}
	if err := env.root.Mkdir("/scratch", 0o755); err != nil {
		return nil, err
	}
	return env, nil
}

// appCases returns the paper's application list in Table 1 order.
func appCases() []appCase {
	return []appCase{
		{
			name: "find -name",
			run: func(env *appEnv, w *workload.Proc) (workload.Report, error) {
				return workload.Find(w, "/src", ".h")
			},
		},
		{
			name: "tar xzf",
			run: func(env *appEnv, w *workload.Proc) (workload.Report, error) {
				env.runID++
				dst := fmt.Sprintf("/scratch/untar%d", env.runID)
				return workload.TarExtract(w, env.tree, dst, []byte("extracted content\n"))
			},
		},
		{
			name: "rm -r",
			pre: func(env *appEnv) error {
				// (Re)extract the victim tree outside the measurement.
				dst := fmt.Sprintf("/scratch/untar%d", env.runID)
				if _, err := env.root.Stat(dst); err == nil {
					return nil
				}
				_, err := workload.TarExtract(workload.NewProc(env.root), env.tree, dst, []byte("x"))
				return err
			},
			run: func(env *appEnv, w *workload.Proc) (workload.Report, error) {
				return workload.RmRecursive(w, fmt.Sprintf("/scratch/untar%d", env.runID))
			},
		},
		{
			name: "make",
			pre: func(env *appEnv) error {
				// Clean objects outside the measurement so the build does
				// real (modeled) work; the header-probe misses during the
				// build are the interesting part.
				cleanObjects(env.root, env.tree)
				return nil
			},
			run: func(env *appEnv, w *workload.Proc) (workload.Report, error) {
				return workload.MakeBuild(w, env.tree, workload.MakeConfig{
					IncludePath:   []string{"/src/include", "/usr/include"},
					CompileEffort: 3000,
				})
			},
		},
		{
			name: "make -j8",
			pre: func(env *appEnv) error {
				cleanObjects(env.root, env.tree)
				return nil
			},
			run: func(env *appEnv, w *workload.Proc) (workload.Report, error) {
				// 8 worker processes forked from w's process: shared
				// credentials, shared PCC (§4.1), concurrent walks.
				procs := make([]*workload.Proc, 8)
				for i := range procs {
					procs[i] = workload.NewProc(w.P.Fork())
				}
				defer func() {
					for _, wp := range procs {
						wp.P.Exit()
					}
				}()
				return workload.MakeBuildParallel(procs, env.tree, workload.MakeConfig{
					IncludePath:   []string{"/src/include", "/usr/include"},
					CompileEffort: 3000,
				})
			},
		},
		{
			name: "du -s",
			run: func(env *appEnv, w *workload.Proc) (workload.Report, error) {
				return workload.DuRecursive(w, "/src")
			},
		},
		{
			name: "updatedb -U usr",
			run: func(env *appEnv, w *workload.Proc) (workload.Report, error) {
				return workload.UpdateDB(w, "/usr", "/var/lib/locatedb")
			},
		},
		{
			name: "git status",
			run: func(env *appEnv, w *workload.Proc) (workload.Report, error) {
				return workload.GitStatus(w, env.tree)
			},
		},
		{
			name: "git diff",
			run: func(env *appEnv, w *workload.Proc) (workload.Report, error) {
				return workload.GitDiff(w, env.tree)
			},
		},
	}
}

// appRun restores app's precondition, then runs one pass of app on a fresh
// Proc. It returns the pass's report with the work the system counted over
// the pass.
func appRun(env *appEnv, app appCase) (workload.Report, dircache.CacheStats, error) {
	var none dircache.CacheStats
	if app.pre != nil {
		if err := app.pre(env); err != nil {
			return workload.Report{}, none, fmt.Errorf("%s pre: %w", app.name, err)
		}
	}
	before := env.sys.Stats()
	rep, err := app.run(env, workload.NewProc(env.root))
	if err != nil {
		return rep, none, fmt.Errorf("%s: %w", app.name, err)
	}
	return rep, env.sys.Stats().Delta(before), nil
}

func cleanObjects(p *dircache.Process, tree *workload.Tree) {
	for _, f := range tree.Files {
		if len(f) > 2 && f[len(f)-2:] == ".c" {
			p.Unlink(f[:len(f)-2] + ".o")
		}
	}
}

// Fig1 reproduces Figure 1: the fraction of each utility's execution time
// spent in path-based operations, by syscall class, on the baseline.
func Fig1(sc Scale) (*Report, error) {
	r := newReport("fig1", "% of execution time in path-based calls (unmodified)",
		"app", "access/stat", "open", "chmod/chown", "unlink", "readdir", "total path %")
	sys := dircache.New(dircache.Baseline())
	env, err := newAppEnv(sys, sc)
	if err != nil {
		return nil, err
	}
	for _, app := range appCases() {
		// Warm pass (dropped, as the paper does).
		if _, _, err := appRun(env, app); err != nil {
			return nil, err
		}
		rep, d, err := appRun(env, app)
		if err != nil {
			return nil, err
		}
		el := float64(rep.Elapsed)
		pct := func(c workload.OpClass) string {
			return fmt.Sprintf("%.1f%%", float64(rep.Probe.Times[c])/el*100)
		}
		r.add(app.name,
			pct(workload.ClassStat), pct(workload.ClassOpen),
			pct(workload.ClassChmod), pct(workload.ClassUnlink),
			pct(workload.ClassReaddir),
			fmt.Sprintf("%.1f%%", rep.PathFraction()*100))
		r.put("pathfrac/"+app.name, rep.PathFraction())
		r.put("paths/"+app.name, float64(rep.Probe.Paths))
		r.put("lookups/"+app.name, float64(d.Lookups))
	}
	r.note("paper: 6-54%% of execution time is path-based calls; stat and open dominate")
	return r, nil
}

// Table1 reproduces Table 1: warm-cache application execution time on the
// unmodified and optimized kernels, with path statistics and cache rates.
func Table1(sc Scale) (*Report, error) {
	r := newReport("table1", "warm-cache application performance",
		"app", "l", "#", "unmod ms", "opt ms", "gain", "hit%", "neg%")
	unmod, opt := sysPair()
	envU, err := newAppEnv(unmod, sc)
	if err != nil {
		return nil, err
	}
	envO, err := newAppEnv(opt, sc)
	if err != nil {
		return nil, err
	}
	for _, app := range appCases() {
		var reps [2]workload.Report
		var ds [2]dircache.CacheStats
		for i, env := range []*appEnv{envU, envO} {
			// One warm pass, dropped, then the measured one.
			if _, _, err := appRun(env, app); err != nil {
				return nil, err
			}
			if reps[i], ds[i], err = appRun(env, app); err != nil {
				return nil, err
			}
		}
		repU, repO, d := reps[0], reps[1], ds[1]
		hit, neg := 0.0, 0.0
		if d.Lookups > 0 {
			hit = (1 - float64(d.FSLookups)/float64(d.Lookups)) * 100
			neg = float64(d.NegativeHits+d.FastNeg+d.CompleteShort) / float64(d.Lookups) * 100
		}
		r.add(app.name,
			fmt.Sprintf("%.0f", repO.Probe.AvgPathLen()),
			fmt.Sprintf("%.1f", repO.Probe.AvgComponents()),
			fmt.Sprintf("%.2f", ms(repU.Elapsed)),
			fmt.Sprintf("%.2f", ms(repO.Elapsed)),
			fmtGain(float64(repU.Elapsed), float64(repO.Elapsed)),
			fmt.Sprintf("%.1f", hit),
			fmt.Sprintf("%.1f", neg))
		r.put("unmod/"+app.name, float64(repU.Elapsed))
		r.put("opt/"+app.name, float64(repO.Elapsed))
		r.put("hit/"+app.name, hit)
		r.put("neg/"+app.name, neg)
		for i, mode := range modes {
			r.put(mode+"/"+app.name+"/components", float64(ds[i].Components))
		}
	}
	r.note("paper gains: find +19%%, updatedb +29%%, du +13%%, git status/diff +4-10%%; " +
		"tar/rm/make within noise")
	return r, nil
}

// Table2 reproduces Table 2: cold-cache runs through the disk-backed file
// system; reported time is wall time plus simulated device latency, and
// the paper's expectation is a wash between kernels.
func Table2(sc Scale) (*Report, error) {
	r := newReport("table2", "cold-cache application performance",
		"app", "unmod ms", "opt ms", "gain")
	type rig struct {
		be  *dircache.Backend
		env *appEnv
	}
	var rigs [2]rig
	for i := range rigs {
		be, err := dircache.NewDiskBackend(dircache.DiskOptions{
			Blocks: 1 << 16, CacheBlocks: 1 << 13, Slow: true,
		})
		if err != nil {
			return nil, err
		}
		cfg := dircache.Baseline()
		if i == 1 {
			cfg = dircache.Optimized()
			cfg.SignatureSeed = 0x22
		}
		cfg.Root = be
		env, err := newAppEnv(dircache.New(cfg), sc)
		if err != nil {
			return nil, err
		}
		rigs[i] = rig{be, env}
	}

	for _, app := range appCases() {
		var ns [2]float64
		for i, rg := range rigs {
			cold := app
			cold.pre = func(env *appEnv) error {
				if app.pre != nil {
					if err := app.pre(env); err != nil {
						return err
					}
				}
				env.sys.DropCaches()
				err := rg.be.InvalidateBufferCache()
				rg.be.ResetSimulatedIO()
				return err
			}
			rep, d, err := appRun(rg.env, cold)
			if err != nil {
				return nil, fmt.Errorf("%s cold: %w", modes[i], err)
			}
			ns[i] = float64(rep.Elapsed) + float64(rg.be.SimulatedIONanos())
			r.put(modes[i]+"/"+app.name+"/fs_lookups", float64(d.FSLookups))
		}
		r.add(app.name,
			fmt.Sprintf("%.2f", ns[0]/1e6),
			fmt.Sprintf("%.2f", ns[1]/1e6),
			fmtGain(ns[0], ns[1]))
		r.put("unmod/"+app.name, ns[0])
		r.put("opt/"+app.name, ns[1])
	}
	r.note("paper: cold-cache results are within noise — neither kernel helps a cold cache")
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
