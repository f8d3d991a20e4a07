package bench

import (
	"fmt"
	"time"

	"dircache"
	"dircache/internal/workload"
)

// appCase is one application emulator wired for the Figure 1 / Table 1 /
// Table 2 suites. pre (optional) restores preconditions outside the
// measurement window; run executes one measured pass and must be
// repeatable.
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

// appPre runs an app's precondition hook, if any.
func appPre(env *appEnv, app appCase) error {
	if app.pre == nil {
		return nil
	}
	if err := app.pre(env); err != nil {
		return fmt.Errorf("%s pre: %w", app.name, err)
	}
	return nil
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
		if err := appPre(env, app); err != nil {
			return nil, err
		}
		if _, err := app.run(env, workload.NewProc(env.root)); err != nil {
			return nil, fmt.Errorf("%s warm: %w", app.name, err)
		}
		if err := appPre(env, app); err != nil {
			return nil, err
		}
		w := workload.NewProc(env.root)
		rep, err := app.run(env, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.name, err)
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
		// Warm both systems (first run dropped).
		if err := appPre(envU, app); err != nil {
			return nil, err
		}
		if _, err := app.run(envU, workload.NewProc(envU.root)); err != nil {
			return nil, fmt.Errorf("%s warm unmod: %w", app.name, err)
		}
		if err := appPre(envO, app); err != nil {
			return nil, err
		}
		if _, err := app.run(envO, workload.NewProc(envO.root)); err != nil {
			return nil, fmt.Errorf("%s warm opt: %w", app.name, err)
		}

		reps := sc.AppReps
		if reps < 1 {
			reps = 1
		}
		// Interleave the two systems' repetitions so machine drift hits
		// both equally; report each one's best run (LMBench-style).
		var repU, repO workload.Report
		before := opt.Stats()
		for i := 0; i < reps; i++ {
			if err := appPre(envU, app); err != nil {
				return nil, err
			}
			ru, err := app.run(envU, workload.NewProc(envU.root))
			if err != nil {
				return nil, err
			}
			if err := appPre(envO, app); err != nil {
				return nil, err
			}
			ro, err := app.run(envO, workload.NewProc(envO.root))
			if err != nil {
				return nil, err
			}
			if i == 0 || ru.Elapsed < repU.Elapsed {
				repU = ru
			}
			if i == 0 || ro.Elapsed < repO.Elapsed {
				repO = ro
			}
		}
		after := opt.Stats()

		dLookups := after.Lookups - before.Lookups
		dMiss := after.FSLookups - before.FSLookups
		dNeg := (after.NegativeHits + after.FastNeg + after.CompleteShort) -
			(before.NegativeHits + before.FastNeg + before.CompleteShort)
		hit, neg := 0.0, 0.0
		if dLookups > 0 {
			hit = (1 - float64(dMiss)/float64(dLookups)) * 100
			neg = float64(dNeg) / float64(dLookups) * 100
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
	mkSys := func(optimized bool) (*dircache.System, *dircache.Backend, *appEnv, error) {
		be, err := dircache.NewDiskBackend(dircache.DiskOptions{
			Blocks: 1 << 16, CacheBlocks: 1 << 13, Slow: true,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		cfg := dircache.Baseline()
		if optimized {
			cfg = dircache.Optimized()
			cfg.SignatureSeed = 0x22
		}
		cfg.Root = be
		sys := dircache.New(cfg)
		env, err := newAppEnv(sys, sc)
		if err != nil {
			return nil, nil, nil, err
		}
		return sys, be, env, nil
	}
	sysU, beU, envU, err := mkSys(false)
	if err != nil {
		return nil, err
	}
	sysO, beO, envO, err := mkSys(true)
	if err != nil {
		return nil, err
	}

	coldRun := func(sys *dircache.System, be *dircache.Backend, env *appEnv, app appCase) (float64, error) {
		if err := appPre(env, app); err != nil {
			return 0, err
		}
		sys.DropCaches()
		if err := be.InvalidateBufferCache(); err != nil {
			return 0, err
		}
		be.ResetSimulatedIO()
		w := workload.NewProc(env.root)
		rep, err := app.run(env, w)
		if err != nil {
			return 0, err
		}
		return float64(rep.Elapsed) + float64(be.SimulatedIONanos()), nil
	}

	for _, app := range appCases() {
		tu, err := coldRun(sysU, beU, envU, app)
		if err != nil {
			return nil, fmt.Errorf("%s cold unmod: %w", app.name, err)
		}
		to, err := coldRun(sysO, beO, envO, app)
		if err != nil {
			return nil, fmt.Errorf("%s cold opt: %w", app.name, err)
		}
		r.add(app.name,
			fmt.Sprintf("%.2f", tu/1e6),
			fmt.Sprintf("%.2f", to/1e6),
			fmtGain(tu, to))
		r.put("unmod/"+app.name, tu)
		r.put("opt/"+app.name, to)
	}
	r.note("paper: cold-cache results are within noise — neither kernel helps a cold cache")
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
