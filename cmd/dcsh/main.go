// Command dcsh is an interactive shell over a simulated kernel: a small
// REPL with Unix-ish file commands plus cache-inspection commands that show
// the directory cache at work (hit counters, fastpath statistics, bucket
// utilization, dropping caches).
//
// Usage:
//
//	dcsh [-baseline] [-telemetry] [-trace-sample n] [-metrics-addr host:port] [-pprof] [-serve host:port]
//
// -telemetry attaches the observability subsystem (latency histograms, a
// sampled walk trace ring, and the coherence event journal, inspected
// with the 'lat', 'traces', 'events', 'inspect', and 'doctor' commands);
// -metrics-addr additionally serves them over HTTP in Prometheus text
// format and JSON, and implies -telemetry. -pprof upgrades the HTTP
// endpoint with net/http/pprof under /debug/pprof/ and Go runtime
// metrics (goroutines, heap, GC pauses) folded into /metrics.
//
// Try:
//
//	mkdir /home && cd /home && touch a b c && ls
//	stat a           (first: slow walk; again: fastpath hit)
//	stats            (watch FastHits grow)
//	dropcaches && stat a
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"dircache"
	"dircache/internal/ninep"
	"dircache/internal/shard"
	"dircache/internal/telemetry"
)

// nineSrv is the shell's live 9P listener ('serve' command / -serve flag).
var nineSrv *ninep.Server

func main() {
	baseline := flag.Bool("baseline", false, "run the unmodified baseline cache")
	telemetryOn := flag.Bool("telemetry", false, "attach the telemetry subsystem (enables 'lat' and 'traces')")
	traceSample := flag.Int("trace-sample", 32, "with -telemetry, trace 1-in-N walks (0 disables tracing)")
	slowUS := flag.Int64("slow-us", 0, "with -telemetry, flight-record traced ops slower than this many microseconds (0 = 1ms default)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (e.g. localhost:9150); implies -telemetry")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof and Go runtime metrics on the metrics endpoint; implies -telemetry (default address localhost:0)")
	serveAddr := flag.String("serve", "", "export the kernel over 9P2000 on this address from startup (same listener as the 'serve' command)")
	shards := flag.Int("shards", 1, "run N shard systems over one shared backend; the shell drives shard 0, 'top' and the metrics exporter grow per-shard rows, 'pump' drains the coherence logs")
	flag.Parse()

	if *pprofOn && *metricsAddr == "" {
		*metricsAddr = "localhost:0"
	}
	cfg := dircache.Optimized()
	if *baseline {
		cfg = dircache.Baseline()
	}
	var systems []*dircache.System
	if *shards > 1 {
		// A sharded tier over one backend: shard 0 is the shell's kernel
		// (NewLocalGroup gives every shard telemetry, for 'top' and
		// 'doctor'; coherence does not need it). The tier is
		// inspection-grade here: 'top' samples every shard, 'pump' applies
		// each shard's published mutations to its peers, and the exporter
		// registers each shard as its own source.
		g := shard.NewLocalGroup(*shards, cfg, shard.Options{})
		defer g.Close()
		systems = g.Systems
		shardSystems = g.Systems
		shardRouter = g.Router
	} else {
		systems = []*dircache.System{dircache.New(cfg)}
	}
	if *telemetryOn || *metricsAddr != "" {
		for _, s := range systems {
			s.EnableTelemetry(dircache.TelemetryOptions{TraceSample: *traceSample, SlowNS: *slowUS * 1000})
		}
	}
	sys := systems[0]
	p := sys.Start(dircache.RootCreds())

	mode := "optimized"
	if *baseline {
		mode = "baseline"
	}
	fmt.Printf("dcsh: simulated kernel with %s directory cache. Type 'help'.\n", mode)
	if *shards > 1 {
		dircache.RegisterSystems(sys.Telemetry(), "shard", shardSystems...)
		fmt.Printf("sharded tier: %d systems over one backend; shell drives shard 0 ('top' shows per-shard rows, 'pump' converges)\n", *shards)
	}
	if *metricsAddr != "" {
		serve := sys.Telemetry().Serve
		if *pprofOn {
			serve = sys.Telemetry().ServeDebug
		}
		srv, err := serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcsh: metrics endpoint: %v\n", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("serving metrics on http://%s/metrics (traces at /traces, events at /events)\n", srv.Addr())
		if *pprofOn {
			fmt.Printf("pprof on http://%s/debug/pprof/\n", srv.Addr())
		}
	}

	if *serveAddr != "" {
		if err := runCommand(sys, p, []string{"serve", *serveAddr}); err != nil {
			fmt.Fprintf(os.Stderr, "dcsh: -serve: %v\n", err)
			os.Exit(2)
		}
	}
	defer func() {
		if nineSrv != nil {
			nineSrv.Close()
		}
	}()

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("%s $ ", p.Getcwd())
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		args := strings.Fields(line)
		if args[0] == "exit" || args[0] == "quit" {
			return
		}
		if err := runCommand(sys, p, args); err != nil {
			fmt.Printf("dcsh: %s: %v\n", args[0], err)
		}
	}
}

func runCommand(sys *dircache.System, p *dircache.Process, args []string) error {
	need := func(n int) error {
		if len(args) < n+1 {
			return fmt.Errorf("expected %d argument(s)", n)
		}
		return nil
	}
	switch args[0] {
	case "help":
		fmt.Print(`files:  ls [dir]  stat PATH  cat PATH  echo TEXT > PATH
	touch PATH  mkdir PATH  rm PATH  rmdir PATH  mv OLD NEW
	ln [-s] TARGET LINK  chmod MODE PATH  cd DIR  pwd  find [DIR] SUBSTR
mounts: mount mem|proc|disk|nfs DIR   bind SRC DST   umount DIR
	unshare (private mount namespace)  chroot DIR
ident:  su UID   id
cache:  stats  buckets  dentries  dropcaches
	inspect (occupancy snapshot: dcache, DLHT, PCC)
	doctor (online invariant audit; reports violations)
telem:  lat (walk latency quantiles)  traces (sampled walk traces)
	events (coherence event journal: seq bumps, shootdowns, evictions)
	slow (flight recorder: slow/anomalous traces stitched across the wire)
	top [TICKS] (live ops console: rates, hit ratios, stage latencies,
	per-principal 9P ops, pool and slab-arena occupancy, reclaim rates,
	drop counters; default 3 ticks. With -shards N: one row per
	shard — walks/s, fastpath ratio, dentries, coherence lag:
	mutations published that peers have not applied yet)
	(run dcsh with -telemetry; -metrics-addr serves them over HTTP,
	-pprof adds /debug/pprof and runtime metrics)
shard:  pump  (apply each shard's coherence log to its peers;
	run dcsh with -shards N to build the tier)
serve:  serve [ADDR]  (export this kernel over 9P2000; default localhost:5640)
	serve stop    (close the listener and drain connections)
other:  help  exit
`)
	case "ls":
		dir := "."
		if len(args) > 1 {
			dir = args[1]
		}
		ents, err := p.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			fmt.Printf("%-9s %6d %s\n", e.Type, e.Inode, e.Name)
		}
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		fi, err := p.Stat(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s mode %04o uid %d gid %d size %d nlink %d ino %d\n",
			args[1], fi.Type, fi.Perm, fi.UID, fi.GID, fi.Size, fi.Nlink, fi.Inode)
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		data, err := p.ReadFile(args[1])
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		if len(data) > 0 && data[len(data)-1] != '\n' {
			fmt.Println()
		}
	case "echo":
		// echo TEXT > PATH
		gt := -1
		for i, a := range args {
			if a == ">" {
				gt = i
			}
		}
		if gt < 0 || gt == len(args)-1 {
			return fmt.Errorf("usage: echo TEXT > PATH")
		}
		text := strings.Join(args[1:gt], " ") + "\n"
		return p.WriteFile(args[gt+1], []byte(text), 0o644)
	case "touch":
		if err := need(1); err != nil {
			return err
		}
		f, err := p.Open(args[1], dircache.O_CREAT|dircache.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		return f.Close()
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return p.Mkdir(args[1], 0o755)
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return p.Unlink(args[1])
	case "rmdir":
		if err := need(1); err != nil {
			return err
		}
		return p.Rmdir(args[1])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return p.Rename(args[1], args[2])
	case "ln":
		if len(args) == 4 && args[1] == "-s" {
			return p.Symlink(args[2], args[3])
		}
		if len(args) == 3 {
			return p.Link(args[1], args[2])
		}
		return fmt.Errorf("usage: ln [-s] TARGET LINK")
	case "chmod":
		if err := need(2); err != nil {
			return err
		}
		var mode uint32
		if _, err := fmt.Sscanf(args[1], "%o", &mode); err != nil {
			return fmt.Errorf("bad mode %q", args[1])
		}
		return p.Chmod(args[2], mode)
	case "cd":
		if err := need(1); err != nil {
			return err
		}
		return p.Chdir(args[1])
	case "pwd":
		fmt.Println(p.Getcwd())
	case "stats":
		st := sys.Stats()
		fmt.Printf("lookups       %d\n", st.Lookups)
		fmt.Printf("fastpath hits %d (%d negative, %d with the prefix re-checked in place)\n", st.FastHits, st.FastNeg, st.PrefixRechecks)
		fmt.Printf("slow walks    %d (%d resumed at their directory, %d components)\n", st.SlowWalks, st.ResumedWalks, st.Components)
		fmt.Printf("fs lookups    %d (hit rate %.1f%%)\n", st.FSLookups, st.HitRate()*100)
		fmt.Printf("negative hits %d, completeness shortcuts %d\n", st.NegativeHits, st.CompleteShort)
		fmt.Printf("readdir       %d cached / %d from FS\n", st.ReaddirCached, st.ReaddirFS)
		fmt.Printf("miss storms   %d coalesced (%d waited)\n", st.MissCoalesced, st.InLookupWaits)
		fmt.Printf("invalidations %d, populations %d\n", st.Invalidations, st.Populations)
		fmt.Printf("range marks   %d, discharged lazily %d (%d structural kept: path unmoved)\n", st.BatchShootdowns, st.LazyShootdowns, st.KeptUnmoved)
		fmt.Printf("path hash     %d bytes hashed, %d prefixes from the memo\n", st.HashedBytes, st.PrefixMemoHits)
		m := sys.MemStats()
		a := m.Dentries
		occ := 0.0
		if a.Slots > 0 {
			occ = 100 * float64(a.Live) / float64(a.Slots)
		}
		fmt.Printf("mem           %d/%d slab slots live (%.1f%%), free %d, limbo %d (+%d queued), %d reclaimed, %d swept\n",
			a.Live, a.Slots, occ, a.Free, a.Limbo, m.LimboQueue, a.Reclaimed, m.Swept)
		fmt.Printf("table         %d entries in %d buckets (%d doublings), dlht %d in %d (%d), prefix memo %d in %d; tables + memo + arenas hold %d KB\n",
			m.Table.Entries, m.Table.Buckets, m.Table.Resizes, m.DLHT.Entries, m.DLHT.Buckets, m.DLHT.Resizes, m.PrefixMemo.Entries, m.PrefixMemo.Slots, m.Bytes()>>10)
		tf, cf := m.Telemetry, m.Coherence
		fmt.Printf("telemetry     %d histogram cells, %d journal and %d trace slots: %d KB; coherence log %d slots, %d path bytes: %d KB\n",
			tf.HistCells, tf.JournalSlots, tf.TraceSlots, tf.Bytes>>10, cf.Slots, cf.PathBytes, cf.Bytes>>10)
	case "buckets":
		empty, one, two, more := sys.BucketStats()
		total := empty + one + two + more
		fmt.Printf("hash buckets: %d total; %d empty, %d with 1, %d with 2, %d with 3+\n",
			total, empty, one, two, more)
	case "dentries":
		fmt.Printf("%d dentries cached\n", sys.DentryCount())
	case "lat":
		tl := sys.Telemetry()
		if tl == nil {
			return fmt.Errorf("telemetry off (restart dcsh with -telemetry)")
		}
		shown := 0
		for id := range telemetry.NumHistograms {
			name := id.Name()
			p50, p95, p99, ok := tl.HistogramQuantiles(name)
			if !ok {
				continue
			}
			fmt.Printf("%-12s p50 %-10v p95 %-10v p99 %v\n", name, p50, p95, p99)
			shown++
		}
		if shown == 0 {
			fmt.Println("no latency observations yet (run some commands first)")
		}
	case "traces":
		tl := sys.Telemetry()
		if tl == nil {
			return fmt.Errorf("telemetry off (restart dcsh with -telemetry)")
		}
		if tl.TraceCount() == 0 {
			fmt.Println("no sampled walk traces yet (sampling is 1-in-N; see -trace-sample)")
			return nil
		}
		os.Stdout.Write(tl.TracesJSON())
	case "slow":
		return cmdSlow(sys)
	case "top":
		if sys.Telemetry() == nil {
			return fmt.Errorf("telemetry off (restart dcsh with -telemetry)")
		}
		ticks := 3
		if len(args) > 1 {
			if _, err := fmt.Sscanf(args[1], "%d", &ticks); err != nil || ticks < 1 {
				return fmt.Errorf("usage: top [TICKS]")
			}
		}
		return cmdTop(topSystems(sys), ticks)
	case "pump":
		if shardRouter == nil {
			return fmt.Errorf("not sharded (run dcsh with -shards N)")
		}
		n := shardRouter.Pump()
		pub, applied, fallbacks := shardRouter.Stats()
		fmt.Printf("pumped %d coherence record(s); totals: published %d, applied %d, fallbacks %d\n",
			n, pub, applied, fallbacks)
	case "dropcaches":
		n := sys.DropCaches()
		fmt.Printf("evicted %d dentries\n", n)
	case "inspect":
		in := sys.Inspect()
		os.Stdout.Write(in.JSON())
		fmt.Println()
	case "events":
		tl := sys.Telemetry()
		if tl == nil {
			return fmt.Errorf("telemetry off (restart dcsh with -telemetry)")
		}
		events, dropped := tl.Events()
		if len(events) == 0 {
			fmt.Println("no coherence events yet (mutate something: mkdir, mv, chmod, rm)")
			return nil
		}
		for _, e := range events {
			fmt.Printf("%8d %-14s ref=%-6d aux=%-6d %s\n", e.ID, e.Kind.String(), e.Ref, e.Aux, e.Note)
		}
		if dropped > 0 {
			fmt.Printf("(%d older events dropped)\n", dropped)
		}
	case "doctor":
		r := sys.Doctor()
		fmt.Println(r.Summary())
	case "find":
		dir, substr := ".", ""
		switch len(args) {
		case 2:
			substr = args[1]
		case 3:
			dir, substr = args[1], args[2]
		default:
			return fmt.Errorf("usage: find [DIR] SUBSTR")
		}
		matches := 0
		var visit func(d string) error
		visit = func(d string) error {
			ents, err := p.ReadDir(d)
			if err != nil {
				return err
			}
			for _, e := range ents {
				path := d + "/" + e.Name
				if d == "/" {
					path = "/" + e.Name
				}
				if strings.Contains(e.Name, substr) {
					fmt.Println(path)
					matches++
				}
				if e.Type == dircache.TypeDirectory {
					if err := visit(path); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := visit(dir); err != nil {
			return err
		}
		fmt.Printf("(%d matches)\n", matches)
	case "mount":
		if err := need(2); err != nil {
			return err
		}
		var be *dircache.Backend
		switch args[1] {
		case "mem":
			be = dircache.NewMemBackend(dircache.MemOptions{})
		case "proc":
			be = dircache.NewProcBackend(64)
		case "nfs":
			be = dircache.NewRemoteBackend(dircache.RemoteOptions{})
		case "disk":
			var err error
			be, err = dircache.NewDiskBackend(dircache.DiskOptions{Blocks: 1 << 14})
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("mount kinds: mem, proc, disk, nfs")
		}
		return p.Mount(be, args[2], 0)
	case "bind":
		if err := need(2); err != nil {
			return err
		}
		return p.BindMount(args[1], args[2], 0)
	case "umount":
		if err := need(1); err != nil {
			return err
		}
		return p.Unmount(args[1])
	case "unshare":
		p.UnshareNamespace()
		fmt.Println("now in a private mount namespace")
	case "chroot":
		if err := need(1); err != nil {
			return err
		}
		if err := p.Chroot(args[1]); err != nil {
			return err
		}
		return p.Chdir("/")
	case "su":
		if err := need(1); err != nil {
			return err
		}
		var uid uint32
		if _, err := fmt.Sscanf(args[1], "%d", &uid); err != nil {
			return fmt.Errorf("bad uid %q", args[1])
		}
		p.SetCreds(dircache.UserCreds(uid))
		fmt.Printf("uid now %d (fresh prefix check cache unless unchanged)\n", uid)
	case "id":
		fmt.Println("use 'su UID' to switch; permissions are enforced per credential")
	case "serve":
		if len(args) > 1 && args[1] == "stop" {
			if nineSrv == nil {
				return fmt.Errorf("not serving")
			}
			st := nineSrv.Stats()
			if err := nineSrv.Close(); err != nil {
				return err
			}
			nineSrv = nil
			fmt.Printf("9P listener closed (%d conns, %d ops, %d walks served)\n",
				st.ConnsTotal, st.Ops, st.Walks)
			return nil
		}
		if nineSrv != nil {
			return fmt.Errorf("already serving on %s ('serve stop' first)", nineSrv.Addr())
		}
		addr := "localhost:5640"
		if len(args) > 1 {
			addr = args[1]
		}
		srv, err := ninep.Serve(sys, addr, ninep.Config{})
		if err != nil {
			return err
		}
		nineSrv = srv
		fmt.Printf("serving 9P2000 on %s — same dentries, DLHT and PCCs this shell uses\n", srv.Addr())
		fmt.Println("(unames: root, or any decimal uid; with -telemetry, 'lat' shows ninep_* op latency)")
	default:
		return fmt.Errorf("unknown command (try 'help')")
	}
	return nil
}
