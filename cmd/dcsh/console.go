// The live ops console. 'top' renders windowed per-second rates over
// the whole stack — kernel lookup mix and hit ratios, stage latency
// breakdowns, 9P per-op and per-principal rates, Process-pool occupancy,
// slab-arena occupancy and reclamation rates, and telemetry drop rates.
// 'slow' dumps the flight recorder: every retained slow or anomalous
// trace, stitched across the wire.
package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"dircache"
	"dircache/internal/shard"
	"dircache/internal/telemetry"
)

// topInterval is the sampling window per tick (a var so tests can
// shrink it).
var topInterval = time.Second

// shardSystems and shardRouter are set by main when -shards builds a
// sharded tier: 'top' then renders one row per shard (walks/s, fastpath
// ratio, dentry occupancy, coherence lag) instead of silently showing only
// shard 0, and 'pump' drains the coherence logs.
var (
	shardSystems []*dircache.System
	shardRouter  *shard.Router
)

// topSystems returns every system 'top' should sample: the sharded tier
// when one is live, else just the shell's own kernel.
func topSystems(sys *dircache.System) []*dircache.System {
	if len(shardSystems) > 1 {
		return shardSystems
	}
	return []*dircache.System{sys}
}

// cmdSlow prints the flight recorder contents and its drop count.
func cmdSlow(sys *dircache.System) error {
	tl := sys.Telemetry()
	if tl == nil {
		return fmt.Errorf("telemetry off (restart dcsh with -telemetry)")
	}
	traces, dropped := tl.SlowTraces()
	if len(traces) == 0 && dropped == 0 {
		fmt.Println("flight recorder empty: no trace has crossed its op's slow threshold (see -slow-us)")
		return nil
	}
	os.Stdout.Write(tl.SlowJSON())
	return nil
}

// topShot is one tick's snapshot of every counter 'top' derives rates
// from.
type topShot struct {
	at                     time.Time
	st                     dircache.CacheStats
	mem                    dircache.MemStats
	hist                   map[string]uint64 // histogram observation counts
	users                  map[string]int64  // per-principal 9P ops (when serving)
	ops                    int64             // total 9P ops (when serving)
	errs                   int64
	evDrop, trDrop, slDrop uint64
	slKept                 int // flight-recorded traces retained

	// Per-shard samples (len > 1 only when -shards built a tier).
	shards []dircache.CacheStats
	dents  []int
	lag    []int // per shard: coherence records its peers have not consumed
}

// topOps are the 9P per-op cost centers shown as rate columns.
var topOps = []string{"ninep_attach", "ninep_walk", "ninep_open", "ninep_read", "ninep_stat", "ninep_clunk"}

func topSnapshot(systems []*dircache.System) topShot {
	sys := systems[0]
	tl := sys.Telemetry()
	s := topShot{
		at:     time.Now(),
		st:     sys.Stats(),
		mem:    sys.MemStats(),
		hist:   map[string]uint64{},
		evDrop: tl.EventsDropped(),
		trDrop: tl.TracesDropped(),
	}
	if len(systems) > 1 {
		for _, ss := range systems {
			s.shards = append(s.shards, ss.Stats())
			s.dents = append(s.dents, ss.DentryCount())
		}
		if shardRouter != nil {
			s.lag = shardRouter.Lag()
		}
	}
	s.slDrop, s.slKept = tl.SlowDropped(), tl.SlowCount()
	for _, name := range append([]string{"walk"}, topOps...) {
		if id, ok := telemetry.HistIDByName(name); ok {
			s.hist[name] = tl.SnapshotHist(id).Count
		}
	}
	if nineSrv != nil {
		st := nineSrv.Stats()
		s.ops, s.errs = st.Ops, st.ErrorsSent
		s.users = nineSrv.UserOps()
	}
	return s
}

// cmdTop samples the stack every topInterval for ticks windows and
// prints one rate block per window. With a sharded tier live, every
// shard is sampled and rendered, not just shard 0.
func cmdTop(systems []*dircache.System, ticks int) error {
	tl := systems[0].Telemetry()
	if tl == nil {
		return fmt.Errorf("telemetry off (restart dcsh with -telemetry)")
	}
	prev := topSnapshot(systems)
	for i := 1; i <= ticks; i++ {
		time.Sleep(topInterval)
		cur := topSnapshot(systems)
		renderTop(systems[0], prev, cur, i, ticks)
		prev = cur
	}
	return nil
}

func renderTop(sys *dircache.System, prev, cur topShot, tick, ticks int) {
	sec := cur.at.Sub(prev.at).Seconds()
	if sec <= 0 {
		sec = 1
	}
	rate := func(a, b int64) float64 { return float64(b-a) / sec }
	d := func(a, b int64) int64 { return b - a }
	tl := sys.Telemetry()

	fmt.Printf("── top %d/%d ── window %.1fs ──\n", tick, ticks, sec)
	dl := d(prev.st.Lookups, cur.st.Lookups)
	fastPct, hitPct := 0.0, 0.0
	if dl > 0 {
		fastPct = 100 * float64(d(prev.st.FastHits, cur.st.FastHits)) / float64(dl)
		hitPct = 100 * (1 - float64(d(prev.st.FSLookups, cur.st.FSLookups))/float64(dl))
	}
	fmt.Printf("walks   %8.0f/s   fastpath %5.1f%%   cache hit %5.1f%%   slow %.0f/s   fs %.0f/s\n",
		rate(prev.st.Lookups, cur.st.Lookups), fastPct, hitPct,
		rate(prev.st.SlowWalks, cur.st.SlowWalks),
		rate(prev.st.FSLookups, cur.st.FSLookups))
	fmt.Printf("assists %8.0f coalesced/s\n", rate(prev.st.MissCoalesced, cur.st.MissCoalesced))

	fmt.Printf("stages ")
	for _, name := range []string{"walk", "fastpath", "slowpath", "fs_lookup"} {
		if p50, _, p99, ok := tl.HistogramQuantiles(name); ok {
			fmt.Printf("  %s p50 %v p99 %v", name, p50, p99)
		}
	}
	fmt.Println()

	if nineSrv != nil {
		fmt.Printf("9P      %8.0f ops/s   errors %.0f/s   pool idle %d (reuse %d/%d gets)\n",
			rate(prev.ops, cur.ops), rate(prev.errs, cur.errs),
			nineSrv.Stats().PoolIdle, nineSrv.Stats().PoolReuses, nineSrv.Stats().PoolGets)
		fmt.Printf("        per-op/s:")
		for _, name := range topOps {
			if r := float64(cur.hist[name]-prev.hist[name]) / sec; r > 0 {
				fmt.Printf("  %s %.0f", name[len("ninep_"):], r)
			}
		}
		fmt.Println()
		if len(cur.users) > 0 {
			names := make([]string, 0, len(cur.users))
			for u := range cur.users {
				names = append(names, u)
			}
			sort.Strings(names)
			fmt.Printf("        per-principal/s:")
			for _, u := range names {
				fmt.Printf("  %s %.0f", u, float64(cur.users[u]-prev.users[u])/sec)
			}
			fmt.Println()
		}
	}
	a := cur.mem.Dentries
	occ := 0.0
	if a.Slots > 0 {
		occ = 100 * float64(a.Live) / float64(a.Slots)
	}
	fmt.Printf("mem     %8d live slots (occ %.1f%%)   free %d   limbo %d (+%d queued)   reclaim %.0f/s   sweep %.0f/s\n",
		a.Live, occ, a.Free, a.Limbo, cur.mem.LimboQueue,
		rate(int64(prev.mem.Dentries.Reclaimed), int64(a.Reclaimed)), rate(int64(prev.mem.Swept), int64(cur.mem.Swept)))
	fmt.Printf("drops   journal %d (+%d)   trace ring %d (+%d)   flight %d (+%d)   slow retained %d\n",
		cur.evDrop, cur.evDrop-prev.evDrop,
		cur.trDrop, cur.trDrop-prev.trDrop,
		cur.slDrop, cur.slDrop-prev.slDrop, cur.slKept)

	// The sharded tier: one row per shard. coherence-lag is how many
	// records the shard's coherence log holds that its peers have not
	// consumed ('pump' drains them; nonzero steady-state means stale risk).
	if len(cur.shards) > 1 {
		for i, st := range cur.shards {
			var pst dircache.CacheStats
			if i < len(prev.shards) {
				pst = prev.shards[i]
			}
			dl := d(pst.Lookups, st.Lookups)
			fast := 0.0
			if dl > 0 {
				fast = 100 * float64(d(pst.FastHits, st.FastHits)) / float64(dl)
			}
			lag := 0
			if i < len(cur.lag) {
				lag = cur.lag[i]
			}
			fmt.Printf("shard%-2d %8.0f walks/s   fastpath %5.1f%%   dentries %-8d coherence-lag %d\n",
				i, rate(pst.Lookups, st.Lookups), fast, cur.dents[i], lag)
		}
	}
}
