// Command dcserve exports a dircache System as a 9P2000 metadata server:
// the directory cache on the wire. Every connection attaches under a
// uname, gets a pooled kernel Process bound to that principal's shared
// credential (so all of a user's connections warm one prefix check
// cache), and resolves each Twalk with a single multi-component kernel
// walk — a warm wire walk is one DLHT full-path probe regardless of
// depth.
//
// Usage:
//
//	dcserve [-addr host:port] [-baseline] [-seed spec] [-users list]
//	        [-msize n] [-metrics-addr host:port] [-trace-sample n] [-pprof]
//
// The served tree is an in-memory file system, optionally pre-populated
// with -seed (e.g. -seed deep:maven:8 builds a depth-8 maven-shaped
// tree; -seed none serves an empty root). Unames resolve to credentials
// as follows: "root" is uid 0, a decimal uname is that uid, and -users
// adds explicit mappings like "alice=1000:1000,10,20" (uid:gid,groups...).
//
// Stop with SIGINT/SIGTERM: the listener closes, live connections drain,
// and their Processes return to the pool.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"dircache"
	"dircache/internal/ninep"
	"dircache/internal/workload"
)

func main() {
	addr := flag.String("addr", "localhost:5640", "address to serve 9P on")
	baseline := flag.Bool("baseline", false, "serve the unmodified baseline cache (for A/B runs)")
	seed := flag.String("seed", "deep:maven:8", "pre-populate the tree: deep:SHAPE:DEPTH (maven|node), or none")
	users := flag.String("users", "", "extra uname mappings, e.g. alice=1000:1000,10,20;bob=1001:1001")
	msize := flag.Uint("msize", 0, "cap the negotiated 9P message size (0 = protocol max)")
	poolIdle := flag.Int("pool-idle", 0, "max idle Processes parked in the pool (0 = 1024)")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP on this address")
	traceSample := flag.Int("trace-sample", 0, "trace 1-in-N walks (0 disables tracing)")
	slowUS := flag.Int64("slow-us", 0, "flight-record traced ops slower than this many microseconds (0 = 1ms default)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof on the metrics endpoint; implies -metrics-addr localhost:0")
	flag.Parse()

	if err := run(*addr, *baseline, *seed, *users, uint32(*msize), *poolIdle,
		*metricsAddr, *traceSample, *slowUS, *pprofOn, nil, nil); err != nil {
		fmt.Fprintf(os.Stderr, "dcserve: %v\n", err)
		os.Exit(1)
	}
}

// testSysHook, when non-nil, receives the built System before serving
// starts. Tests use it to reach telemetry and drop caches in-process.
var testSysHook func(*dircache.System)

// run builds the System, seeds it, and serves until stop closes (nil =
// wait for SIGINT/SIGTERM). Split from main so tests can drive it: ready,
// when non-nil, receives the bound listener address, then — if a metrics
// endpoint was requested — the metrics address as a second send.
func run(addr string, baseline bool, seed, users string, msize uint32, poolIdle int,
	metricsAddr string, traceSample int, slowUS int64, pprofOn bool,
	stop chan struct{}, ready chan<- string) error {
	if pprofOn && metricsAddr == "" {
		metricsAddr = "localhost:0"
	}
	cfg := dircache.Optimized()
	if baseline {
		cfg = dircache.Baseline()
	}
	sys := dircache.New(cfg)
	sys.EnableTelemetry(dircache.TelemetryOptions{TraceSample: traceSample, SlowNS: slowUS * 1000})
	if testSysHook != nil {
		testSysHook(sys)
	}
	if err := seedTree(sys, seed); err != nil {
		return err
	}
	userMap, err := parseUsers(users)
	if err != nil {
		return err
	}

	srv, err := ninep.Serve(sys, addr, ninep.Config{
		Users:    userMap,
		MaxMsize: msize,
		PoolIdle: poolIdle,
	})
	if err != nil {
		return err
	}
	fmt.Printf("dcserve: 9P2000 on %s (seed=%s)\n", srv.Addr(), seed)
	if ready != nil {
		ready <- srv.Addr().String()
	}

	if metricsAddr != "" {
		// A dcserve endpoint is exactly one shard of a sharded tier, so
		// export its counters under the per-shard source name ("shard0")
		// too: tier dashboards scrape the same key shape from every
		// endpoint and from a multi-shard dcsh.
		dircache.RegisterSystems(sys.Telemetry(), "shard", sys)
		serveFn := sys.Telemetry().Serve
		if pprofOn {
			serveFn = sys.Telemetry().ServeDebug
		}
		ms, err := serveFn(metricsAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("metrics endpoint: %v", err)
		}
		defer ms.Close()
		fmt.Printf("dcserve: metrics on http://%s/metrics\n", ms.Addr())
		if ready != nil {
			ready <- ms.Addr()
		}
	}

	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	} else {
		<-stop
	}
	err = srv.Close()
	st := srv.Stats()
	fmt.Printf("dcserve: drained %d conns, %d ops, %d walks (%d errors)\n",
		st.ConnsTotal, st.Ops, st.Walks, st.ErrorsSent)
	return err
}

// seedTree pre-populates the served tree per the -seed spec.
func seedTree(sys *dircache.System, spec string) error {
	if spec == "" || spec == "none" {
		return nil
	}
	parts := strings.Split(spec, ":")
	if parts[0] != "deep" || len(parts) > 3 {
		return fmt.Errorf("bad -seed %q (want deep:SHAPE:DEPTH or none)", spec)
	}
	shape := "maven"
	depth := 8
	if len(parts) >= 2 && parts[1] != "" {
		shape = parts[1]
	}
	if len(parts) == 3 {
		d, err := strconv.Atoi(parts[2])
		if err != nil || d < 1 {
			return fmt.Errorf("bad -seed depth %q", parts[2])
		}
		depth = d
	}
	p := sys.Start(dircache.RootCreds())
	defer p.Exit()
	_, err := workload.GenerateDeepTree(p, "/srv", workload.DeepSpec{
		Seed: 0x9e57, Depth: depth, Shape: shape, Fanout: 3, Leaves: 4,
	})
	return err
}

// parseUsers parses "name=uid[:gid[,grp...]];name2=..." into a Creds map.
func parseUsers(s string) (map[string]dircache.Creds, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]dircache.Creds{}
	for _, ent := range strings.Split(s, ";") {
		if ent == "" {
			continue
		}
		name, spec, ok := strings.Cut(ent, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -users entry %q", ent)
		}
		uids, rest, _ := strings.Cut(spec, ":")
		uid, err := strconv.ParseUint(uids, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad uid in -users entry %q", ent)
		}
		c := dircache.UserCreds(uint32(uid))
		if rest != "" {
			fields := strings.Split(rest, ",")
			gid, err := strconv.ParseUint(fields[0], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad gid in -users entry %q", ent)
			}
			c.GID = uint32(gid)
			for _, g := range fields[1:] {
				sup, err := strconv.ParseUint(g, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("bad group in -users entry %q", ent)
				}
				c.Groups = append(c.Groups, uint32(sup))
			}
		}
		out[name] = c
	}
	return out, nil
}
