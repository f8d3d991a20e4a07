// Command benchmark measures the whole stack: five closed-loop workloads,
// end-to-end metrics with a regression bound each, and a traced pass that
// gives per-layer numbers. BENCHMARK.json at the root of the repository
// declares what it prints; README.md in this directory says why.
//
// The driver's form, one workload per invocation, last line of standard
// output one JSON object:
//
//	bash benchmark/run.sh --workload warm_stat --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs all five, each in a process of its own;
// --agree runs two such sets and compares them against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dircache"
)

// workloadDef is one workload: what generates its stream, what builds its
// system, and how the load generator drives it.
type workloadDef struct {
	name string
	why  string
	gen  func(*rand.Rand) *stream
	// build makes the system and its tree; the caller warms it.
	build func(s *stream, cfg dircache.Config) (instance, error)
	// warmOps is the fixed number of ops per worker run before measuring,
	// sized so that set-up takes at least half a second.
	warmOps int
	// sampleEvery and traceEvery: see load.
	sampleEvery int
	traceEvery  int
}

var workloads = []workloadDef{
	{
		name: "warm_stat",
		why:  "paper's headline case: read-only Zipf stats on a tree that fits the cache; all time is vfs walk entry, sig and core DLHT/PCC",
		gen:  genWarmStat,
		build: func(s *stream, cfg dircache.Config) (instance, error) {
			return buildInproc(s, cfg, dircache.UserCreds(1000, 1000), s.m.spec.base)
		},
		warmOps: 900_000, sampleEvery: 8, traceEvery: 32,
	},
	{
		name: "churn_mix",
		why:  "same tree, 16% mutations beside the reads: seq bumps, shootdowns, re-admission and slab reclaim, so a read gain that taxes writes shows",
		gen:  genChurnMix,
		build: func(s *stream, cfg dircache.Config) (instance, error) {
			return buildInproc(s, cfg, dircache.RootCreds(), "/")
		},
		warmOps: 150_000, sampleEvery: 8, traceEvery: 16,
	},
	{
		name: "cold_scan",
		why:  "working set 2.5x the cache: miss path, LRU eviction, bulk populate and the memfs backend; the fastpath does little here",
		gen:  genColdScan,
		build: func(s *stream, cfg dircache.Config) (instance, error) {
			cfg.CacheCapacity = coldCacheCapacity
			return buildInproc(s, cfg, dircache.RootCreds(), "/")
		},
		warmOps: 20_000, sampleEvery: 8, traceEvery: 16,
	},
	{
		name: "wire_mix",
		why:  "client-observed 9P over loopback, 2 connections: codec, dispatch and TCP dominate and the cache is under 1%, so a core change must read no change",
		gen:  genWireMix,
		build: func(s *stream, cfg dircache.Config) (instance, error) {
			return buildWire(s, cfg)
		},
		warmOps: 6_000, sampleEvery: 1, traceEvery: 1,
	},
	{
		name: "shard_mix",
		why:  "4 live shards behind the router, 6% mutations pumped to peers: routing and cross-shard invalidation cost beside reads",
		gen:  genShardMix,
		build: func(s *stream, cfg dircache.Config) (instance, error) {
			return buildSharded(s, cfg)
		},
		warmOps: 40_000, sampleEvery: 8, traceEvery: 16,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// systemConfig is the configuration every workload's system starts from.
func systemConfig(seed int64) dircache.Config {
	cfg := dircache.Optimized()
	cfg.SignatureSeed = uint64(seed)*0x9e3779b97f4a7c15 | 1
	return cfg
}

// stamp records where and how a result was measured.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Windows    int     `json:"windows"`
	WindowS    float64 `json:"window_s"`
	StreamHash string  `json:"stream_hash"`
	Samples    int     `json:"samples"`
	// HostRefNS is the run's median reading of the host reference and
	// HostFactor the share of nominal speed that is; the untraced run's
	// window times are scaled by each system's own factor.
	HostRefNS  float64 `json:"host_ref_ns"`
	HostFactor float64 `json:"host_factor"`
}

func newStamp(seed int64, seconds float64, windows int, windowS float64, s *stream) stamp {
	commit := os.Getenv("BENCH_COMMIT") // run.sh sets it; a checkout without git has none
	if commit == "" {
		commit = "unknown"
	}
	return stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds, Windows: windows, WindowS: windowS,
		StreamHash: fmt.Sprintf("%016x", s.hash()),
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload; its driverLine is what the driver
// reads, the whole of it goes to the result file.
type result struct {
	Workload  string               `json:"workload"`
	Stamp     stamp                `json:"stamp"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Findings  []string             `json:"findings,omitempty"`
	Metrics   map[string]value     `json:"metrics"`
	Windows   map[string][]float64 `json:"windows,omitempty"`
	ClassP50  map[string]float64   `json:"class_p50_us,omitempty"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric not declared: " + name)
}

func (r *result) driverLine() string {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

func (r *result) print(defs []metricDef) {
	fmt.Printf("== %s  seed %d  %d windows x %.2f s  samples %d  stream %s\n",
		r.Workload, r.Stamp.Seed, r.Stamp.Windows, r.Stamp.WindowS, r.Stamp.Samples, r.Stamp.StreamHash)
	if r.Stamp.HostRefNS > 0 {
		fmt.Printf("host reference %.3f ns per load: the host ran at %.0f%% of nominal, times are scaled to nominal\n",
			r.Stamp.HostRefNS, 100*r.Stamp.HostFactor)
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-32s %14.4f %s", d.Name, v.Value, v.Unit)
		if raw := r.Windows["raw."+d.Name]; len(raw) > 0 {
			fmt.Printf("  (as measured %.4f)", goodQuartile(raw, d.Better == "higher"))
		}
		fmt.Println()
	}
	if p99 := r.Windows["lat_p99_us"]; len(p99) > 0 {
		fmt.Printf("  p99 %-27s %14.4f us  (not gated: see README)\n", "all ops", goodQuartile(p99, false))
	}
	classes := make([]string, 0, len(r.ClassP50))
	for c := range r.ClassP50 {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("  p50 %-27s %14.4f us\n", c, r.ClassP50[c])
	}
	fmt.Printf("attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Findings {
		fmt.Println("  finding:", f)
	}
}

func (r *result) write(dir string, trace bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s.json", r.Workload)
	if trace {
		name = fmt.Sprintf("result-%s-traced.json", r.Workload)
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	// windows is how many windows the untraced run cuts seconds into,
	// a multiple of setUps.
	windows int
	outDir  string
	// warmScale shrinks the warm-up for the smoke test.
	warmScale float64
}

// setUp builds and warms one instance of wl: the work setup_s times. The
// window it returns counts the warm-up's ops.
func setUp(wl *workloadDef, s *stream, cfg dircache.Config, o options) (instance, *load, window, error) {
	in, err := wl.build(s, cfg)
	if err != nil {
		return nil, nil, window{}, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	ld := newLoad(in, s.ops, wl.sampleEvery)
	return in, ld, ld.runCount(max(batch, int(float64(wl.warmOps)*o.warmScale))), nil
}

const (
	// windowS is the length of a window and the reading of the host
	// reference that follows it. The host stalls this process in bursts
	// and slows it for seconds at a time, so each end-to-end value is
	// taken over many short windows (see goodQuartile); at this length the
	// slowest workload still has fifty samples beyond each window's p95.
	windowS = 0.2
	// refReadS is about what one reading of the host reference takes.
	refReadS = 0.01
	// setUps is how many systems a run sets up: setup_s is the median of
	// their set-up times, and the windows are shared out among them, so
	// that where one system's memory happened to land does not decide
	// the run.
	setUps = 5
)

// windowsFor is how many windows fit in seconds: the same number on every
// system.
func windowsFor(seconds float64) int {
	return max(1, int(seconds/windowS)/setUps) * setUps
}

// runE2E is the untraced run: five systems one after the other, each set
// up under the clock and then measured for a fifth of the windows, the
// host reference read around every window. A system's window times are
// scaled by the host's speed while it was measured; an end-to-end value
// is then the good quartile of its windows, or the median set-up.
func runE2E(wl *workloadDef, o options) (*result, error) {
	s := wl.gen(rand.New(rand.NewSource(o.seed)))
	cfg := systemConfig(o.seed)
	winS := o.seconds/float64(o.windows) - refReadS
	res := &result{Workload: wl.name, Stamp: newStamp(o.seed, o.seconds, o.windows, winS, s),
		Metrics: map[string]value{}, Windows: map[string][]float64{}, ClassP50: map[string]float64{}}
	raw := func(name string, v float64) { res.Windows["raw."+name] = append(res.Windows["raw."+name], v) }

	// Heap the system holds once it is set up: what is in use with it,
	// less what is in use without. It is read after set-up's fixed number
	// of ops and not after the windows, where it would follow how many
	// ops the host let the run complete.
	without := heapInuse()
	var heap int64
	var ref *hostRef
	var classLat [numClasses][]float64
	for k := 0; k < setUps; k++ {
		t0 := time.Now()
		in, ld, warm, err := setUp(wl, s, cfg, o)
		if err != nil {
			return nil, err
		}
		res.Windows["setup_s"] = append(res.Windows["setup_s"], time.Since(t0).Seconds())
		res.Attempted += warm.ops
		res.Failed += warm.failed
		if k == 0 {
			heap = heapInuse() - without
			ref = newHostRef(in.workers())
		}

		first := len(res.Windows["raw.ops_per_s"])
		refs := []float64{ref.read()}
		var classRaw [numClasses][]float64
		for j := 0; j < o.windows/setUps; j++ {
			w := ld.runFor(time.Duration(winS*float64(time.Second)), 0)
			refs = append(refs, ref.read())
			res.Attempted += w.ops
			res.Failed += w.failed
			res.Stamp.Samples += len(w.samples)
			lat := w.latencies()
			raw("ops_per_s", float64(w.ops)/w.seconds)
			raw("lat_p50_us", quantile(lat.all, 0.5))
			raw("lat_p95_us", quantile(lat.all, 0.95))
			raw("lat_p99_us", quantile(lat.all, 0.99))
			for c := range lat.class {
				if len(lat.class[c]) > 0 {
					classRaw[c] = append(classRaw[c], median(lat.class[c]))
				}
			}
		}
		res.Windows["host_ref_ns"] = append(res.Windows["host_ref_ns"], refs...)

		// One factor for the system's windows, from the median reading: a
		// single reading jumps when the host stalls this process.
		f := ref.factor(median(refs))
		for _, v := range res.Windows["raw.ops_per_s"][first:] {
			res.Windows["ops_per_s"] = append(res.Windows["ops_per_s"], v/f)
		}
		for _, name := range []string{"lat_p50_us", "lat_p95_us", "lat_p99_us"} {
			for _, v := range res.Windows["raw."+name][first:] {
				res.Windows[name] = append(res.Windows[name], v*f)
			}
		}
		for c, v := range classRaw {
			if len(v) > 0 {
				classLat[c] = append(classLat[c], median(v)*f)
			}
		}
		res.Findings = append(res.Findings, in.verify()...)
		in.close()
	}
	for c, v := range classLat {
		if len(v) > 0 {
			res.ClassP50[classNames[c]] = median(v)
		}
	}

	res.set(endToEnd, "ops_per_s", goodQuartile(res.Windows["ops_per_s"], true))
	res.set(endToEnd, "lat_p50_us", goodQuartile(res.Windows["lat_p50_us"], false))
	res.set(endToEnd, "lat_p95_us", goodQuartile(res.Windows["lat_p95_us"], false))
	res.set(endToEnd, "setup_s", median(res.Windows["setup_s"]))
	res.set(endToEnd, "heap_mb", float64(heap)/(1<<20))
	res.Stamp.HostRefNS = median(res.Windows["host_ref_ns"])
	res.Stamp.HostFactor = ref.factor(res.Stamp.HostRefNS)
	res.Correct = res.Failed == 0 && len(res.Findings) == 0
	return res, nil
}

func heapInuse() int64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// runOne runs one workload in this process, prints its metrics, writes
// its result file and prints the driver's line last.
func runOne(name string, o options, trace bool) error {
	wl := findWorkload(name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	run, defs := runE2E, endToEnd
	if trace {
		run, defs = runTraced, perLayer
	}
	res, err := run(wl, o)
	if err != nil {
		return err
	}
	res.print(defs)
	if err := res.write(o.outDir, trace); err != nil {
		return err
	}
	fmt.Println(res.driverLine())
	return nil
}

// child is this program started again for one workload, in the driver's
// form: every run gets a process of its own, as under the driver.
func child(name string, o options, trace bool) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", t, "--out", o.outDir)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// runAll runs every workload, one process each, passing their output on.
func runAll(o options, trace bool) error {
	for _, name := range workloadNames() {
		cmd, err := child(name, o, trace)
		if err != nil {
			return err
		}
		cmd.Stdout = os.Stdout
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// driverRun runs one workload as the driver does and reads the last line
// it prints.
func driverRun(name string, o options) (*result, error) {
	cmd, err := child(name, o, false)
	if err != nil {
		return nil, err
	}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := &result{Workload: name}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s: last line of output: %w", name, err)
	}
	return res, nil
}

// agree runs two full sets back to back, every run in a process of its
// own, and reports every pairing of end-to-end metric and workload whose
// two values differ by more than the metric's bound.
func agree(o options) (bool, error) {
	var sets [2][]*result
	for i := range sets {
		for _, name := range workloadNames() {
			res, err := driverRun(name, o)
			if err != nil {
				return false, err
			}
			fmt.Printf("set %d  %-10s ops_per_s %.0f\n", i+1, name, res.Metrics["ops_per_s"].Value)
			sets[i] = append(sets[i], res)
		}
	}
	ok := true
	fmt.Printf("\n%-10s %-12s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "differ", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := (y - x) / x
			verdict := ""
			if diff > d.Bound || diff < -d.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-10s %-12s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", a.Workload, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
		ok = ok && a.Correct && b.Correct
	}
	return ok, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five)")
		seed     = flag.Int64("seed", 1, "seed of the generated tree and op stream")
		seconds  = flag.Float64("seconds", runSeconds, "seconds measured per workload")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		traced   = flag.Bool("traced", false, "same as -trace 1")
		doAgree  = flag.Bool("agree", false, "run two full sets and exit 1 if any end-to-end metric differs by more than its bound")
		outDir   = flag.String("out", "benchmark/out", "directory for result and trace files")
		printMan = flag.Bool("manifest", false, "print BENCHMARK.json as the benchmark's tables give it, and exit")
	)
	flag.Parse()
	if *printMan {
		fmt.Print(manifest())
		return
	}
	o := options{seed: *seed, seconds: *seconds, windows: windowsFor(*seconds), outDir: *outDir, warmScale: 1}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	if *doAgree {
		ok, err := agree(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !ok {
			fmt.Println("two sets of the same code disagree")
			os.Exit(1)
		}
		fmt.Println("two sets of the same code agree within every bound")
		return
	}
	var err error
	if *workload != "" {
		err = runOne(*workload, o, *trace == 1 || *traced)
	} else {
		err = runAll(o, *trace == 1 || *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
