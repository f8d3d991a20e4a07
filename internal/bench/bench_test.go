package bench

import (
	"fmt"
	"testing"
)

// The bench tests run every experiment at SmallScale and assert the
// paper's qualitative shapes. Absolute numbers vary by machine; the
// relations below are the reproduction targets (who wins, and roughly
// where).

// retryShape runs a noise-sensitive throughput experiment up to three
// times, passing if any attempt satisfies check (standard practice for
// perf assertions on shared machines; the latency microbenches stay
// strict).
func retryShape(t *testing.T, f func(Scale) (*Report, error), check func(*Report) error) {
	t.Helper()
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		r, err := f(SmallScale())
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("%s produced no rows", r.ID)
		}
		if lastErr = check(r); lastErr == nil {
			t.Logf("\n%s", r)
			return
		}
		t.Logf("attempt %d: %v\n%s", attempt+1, lastErr, r)
	}
	t.Fatalf("shape not reproduced after retries: %v", lastErr)
}

func runExp(t *testing.T, f func(Scale) (*Report, error)) *Report {
	t.Helper()
	r, err := f(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatalf("%s produced no rows", r.ID)
	}
	t.Logf("\n%s", r)
	return r
}

func TestFig1Shape(t *testing.T) {
	retryShape(t, Fig1, func(r *Report) error {
		// Path-based calls are a significant fraction for the
		// metadata-bound utilities (paper: 6-54%).
		for _, app := range []string{"find -name", "du -s", "updatedb -U usr", "git status"} {
			frac := r.Get("pathfrac/" + app)
			if frac < 0.05 || frac > 1.001 {
				return fmt.Errorf("%s path fraction %.3f outside plausible range", app, frac)
			}
		}
		// make is compute-dominated: smaller fraction than find.
		if r.Get("pathfrac/make") >= r.Get("pathfrac/find -name") {
			return fmt.Errorf("make path fraction %.3f >= find %.3f; expected compute to dominate make",
				r.Get("pathfrac/make"), r.Get("pathfrac/find -name"))
		}
		return nil
	})
}

func TestFig2Shape(t *testing.T) {
	retryShape(t, Fig2, func(r *Report) error {
		big := r.Get("stat/v2.6.36")
		rcu := r.Get("stat/v3.14")
		opt := r.Get("stat/v3.14-opt")
		if big == 0 || rcu == 0 || opt == 0 {
			return fmt.Errorf("missing data: %v", r.Data)
		}
		// The headline: optimized beats the RCU baseline (paper: -26%).
		if opt >= rcu {
			return fmt.Errorf("optimized (%.0fns) not faster than rcu baseline (%.0fns)", opt, rcu)
		}
		// Single-threaded lock cost is modest, but the ordering should not
		// be wildly inverted: the big-lock era must not beat optimized.
		if big < opt {
			return fmt.Errorf("biglock era (%.0fns) beat optimized (%.0fns)", big, opt)
		}
		return nil
	})
}

func TestFig3Shape(t *testing.T) {
	retryShape(t, Fig3, func(r *Report) error {
		// Baseline totals grow with component count.
		if r.Get("8-comp/unmod/total") <= r.Get("1-comp/unmod/total") {
			return fmt.Errorf("baseline lookup cost did not grow with depth: 1-comp %.0f vs 8-comp %.0f",
				r.Get("1-comp/unmod/total"), r.Get("8-comp/unmod/total"))
		}
		// Baseline permission-check time grows with depth (prefix check is
		// linear); optimized does not walk, so its growth is bounded by
		// hashing only.
		if r.Get("8-comp/unmod/permcheck") <= r.Get("1-comp/unmod/permcheck") {
			return fmt.Errorf("baseline perm-check time did not grow with depth")
		}
		// Optimized total at 8 components beats baseline at 8 components.
		if r.Get("8-comp/opt/total") >= r.Get("8-comp/unmod/total") {
			return fmt.Errorf("optimized 8-comp (%.0f) not faster than baseline (%.0f)",
				r.Get("8-comp/opt/total"), r.Get("8-comp/unmod/total"))
		}
		return nil
	})
}

func TestFig6Shape(t *testing.T) {
	retryShape(t, Fig6, fig6Check)
}

func fig6Check(r *Report) error {
	// The gain grows with path depth; at 8 components optimized must win
	// clearly for stat (paper: 26%). open carries fixed handle-machinery
	// cost in both configs, so it gets a noise band.
	u8 := r.Get("stat/8-comp/unmod")
	o8 := r.Get("stat/8-comp/opt")
	if o8 >= u8 {
		return fmt.Errorf("stat 8-comp: optimized %.0f >= unmod %.0f", o8, u8)
	}
	u1, o1 := r.Get("stat/1-comp/unmod"), r.Get("stat/1-comp/opt")
	gain1 := (u1 - o1) / u1
	gain8 := (u8 - o8) / u8
	if gain8 <= gain1-0.05 {
		return fmt.Errorf("stat gain did not grow with depth: 1-comp %.2f vs 8-comp %.2f", gain1, gain8)
	}
	if oo, uo := r.Get("open/8-comp/opt"), r.Get("open/8-comp/unmod"); oo > uo*1.10 {
		return fmt.Errorf("open 8-comp: optimized %.0f well above unmod %.0f", oo, uo)
	}
	// Fastpath miss + slowpath costs more than unmodified (paper: 12-93%).
	if r.Get("stat/8-comp/opt-miss+slow") <= r.Get("stat/8-comp/unmod") {
		return fmt.Errorf("forced miss (%.0f) should cost more than unmod (%.0f)",
			r.Get("stat/8-comp/opt-miss+slow"), r.Get("stat/8-comp/unmod"))
	}
	// Negative lookups (neg-f) hit the fastpath and beat baseline.
	if r.Get("stat/neg-f/opt") >= r.Get("stat/neg-f/unmod") {
		return fmt.Errorf("neg-f: optimized %.0f >= unmod %.0f",
			r.Get("stat/neg-f/opt"), r.Get("stat/neg-f/unmod"))
	}
	// Symlink caching wins on both link shapes (paper: 44-48%).
	for _, pt := range []string{"link-f", "link-d"} {
		if r.Get("stat/"+pt+"/opt") >= r.Get("stat/"+pt+"/unmod") {
			return fmt.Errorf("%s: optimized %.0f >= unmod %.0f", pt,
				r.Get("stat/"+pt+"/opt"), r.Get("stat/"+pt+"/unmod"))
		}
	}
	// Lexical dot-dot beats Linux-semantics dot-dot on the fastpath.
	if r.Get("stat/4-dotdot/opt-lexical") >= r.Get("stat/4-dotdot/opt") {
		return fmt.Errorf("lexical dotdot (%.0f) not faster than Linux-semantics dotdot (%.0f)",
			r.Get("stat/4-dotdot/opt-lexical"), r.Get("stat/4-dotdot/opt"))
	}
	return nil
}

func TestFig7Shape(t *testing.T) {
	retryShape(t, Fig7, func(r *Report) error {
		// A permission change takes the range shootdown rename takes, so
		// the curve the paper's Figure 7 charts as linear in the cached
		// subtree is flat here: the biggest subtree costs what the smallest
		// does (within noise), and the gap to the baseline is the constant
		// one of re-walking to a directory whose own entry the previous
		// chmod invalidated — it does not grow with the subtree.
		small, big := r.Get("chmod/1/opt"), r.Get("chmod/100/opt")
		if big > small*1.5 {
			return fmt.Errorf("optimized chmod grew with the cached subtree: %.0f -> %.0f", small, big)
		}
		gapSmall := small - r.Get("chmod/1/unmod")
		if gap := big - r.Get("chmod/100/unmod"); gap > gapSmall*1.5+200 {
			return fmt.Errorf("optimized chmod's gap to baseline grew with the subtree: %.0f ns at 1, %.0f ns at 100", gapSmall, gap)
		}
		// Rename takes the batched range shootdown instead of an eager
		// subtree walk, so the big-subtree penalty the paper's Figure 7
		// charts is gone: cost stays near baseline regardless of how many
		// descendants are cached.
		if r.Get("rename/100/opt") > r.Get("rename/100/unmod")*1.5 {
			return fmt.Errorf("batched rename on big subtree (%.0f) should stay near baseline (%.0f)",
				r.Get("rename/100/opt"), r.Get("rename/100/unmod"))
		}
		return nil
	})
}

func TestFig8Shape(t *testing.T) {
	retryShape(t, Fig8, func(r *Report) error {
		// Optimized wins at every thread count (within noise); per-op
		// latency stays bounded as threads grow (read-side scalability).
		for _, th := range SmallScale().Threads {
			u := r.Get(statKey(th, "unmod"))
			o := r.Get(statKey(th, "opt"))
			if o >= u*1.05 {
				return fmt.Errorf("threads=%d: optimized %.0f >= unmod %.0f", th, o, u)
			}
		}
		t1 := r.Get(statKey(1, "opt"))
		tn := r.Get(statKey(SmallScale().Threads[len(SmallScale().Threads)-1], "opt"))
		if tn > t1*8 {
			return fmt.Errorf("optimized latency collapsed under threads: %.0f -> %.0f", t1, tn)
		}
		return nil
	})
}

func statKey(threads int, mode string) string {
	return "stat/" + itoa(threads) + "/" + mode
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestFig9Shape(t *testing.T) {
	retryShape(t, Fig9, func(r *Report) error {
		sizes := SmallScale().DirSizes
		for i, size := range sizes {
			u := r.Get("readdir/" + itoa(size) + "/unmod")
			o := r.Get("readdir/" + itoa(size) + "/opt")
			band := 1.0
			if i == 0 {
				band = 1.05 // tiny directories sit near the noise floor
			}
			if o >= u*band {
				return fmt.Errorf("readdir size=%d: optimized %.0f >= unmod %.0f", size, o, u)
			}
		}
		// Larger directories gain at least as much (paper: 46% -> 74%).
		gain := func(size int) float64 {
			u := r.Get("readdir/" + itoa(size) + "/unmod")
			o := r.Get("readdir/" + itoa(size) + "/opt")
			return (u - o) / u
		}
		if gain(sizes[len(sizes)-1]) < gain(sizes[0])-0.15 {
			return fmt.Errorf("readdir gain shrank with size: %.2f -> %.2f", gain(sizes[0]), gain(sizes[len(sizes)-1]))
		}
		return nil
	})
}

func TestFig10Shape(t *testing.T) {
	retryShape(t, Fig10, func(r *Report) error {
		sizes := SmallScale().MailboxSizes
		// Small boxes may sit near the rename-overhead crossover; the
		// largest box must win outright (the paper's regime), smaller
		// ones must stay within a noise band.
		for _, size := range sizes[:len(sizes)-1] {
			u := r.Get("unmod/" + itoa(size))
			o := r.Get("opt/" + itoa(size))
			if o < u*0.85 {
				return fmt.Errorf("mailbox=%d: optimized %.0f ops/s far below unmod %.0f", size, o, u)
			}
		}
		last := sizes[len(sizes)-1]
		if u, o := r.Get("unmod/"+itoa(last)), r.Get("opt/"+itoa(last)); o <= u {
			return fmt.Errorf("mailbox=%d: optimized %.0f ops/s <= unmod %.0f", last, o, u)
		}
		return nil
	})
}

func TestTable1Shape(t *testing.T) {
	retryShape(t, Table1, func(r *Report) error {
		// The metadata-bound winners of the paper must win here: none may
		// regress past a noise band, and most must win outright.
		wins := 0
		apps := []string{"find -name", "du -s", "updatedb -U usr", "git status", "git diff"}
		for _, app := range apps {
			u := r.Get("unmod/" + app)
			o := r.Get("opt/" + app)
			// The band absorbs GC noise from the optimized system's larger
			// heap (the paper's acknowledged ~50% dcache memory overhead).
			if o > u*1.15 {
				return fmt.Errorf("%s: optimized %.3fms regressed past unmod %.3fms", app, o/1e6, u/1e6)
			}
			if o < u {
				wins++
			}
		}
		if wins < 3 {
			return fmt.Errorf("only %d/%d metadata-bound apps faster optimized", wins, len(apps))
		}
		// Warm-cache hit rates are high (paper: 84-100%).
		for _, app := range []string{"find -name", "du -s", "git status"} {
			if hit := r.Get("hit/" + app); hit < 80 {
				return fmt.Errorf("%s hit rate %.1f%% below warm-cache expectation", app, hit)
			}
		}
		// make shows a significant negative dentry rate (paper: ~20%).
		if neg := r.Get("neg/make"); neg < 5 {
			return fmt.Errorf("make negative rate %.1f%% too low; header probes should miss", neg)
		}
		// Compute-bound make must not regress badly (paper: within noise).
		if u, o := r.Get("unmod/make"), r.Get("opt/make"); o > u*1.25 {
			return fmt.Errorf("make regressed: %.2fms -> %.2fms", u/1e6, o/1e6)
		}
		return nil
	})
}

func TestTable2Shape(t *testing.T) {
	retryShape(t, Table2, func(r *Report) error {
		// Cold-cache runs are a wash: neither side wins by a large factor
		// (paper: all within noise).
		for _, app := range []string{"find -name", "du -s", "git status"} {
			u := r.Get("unmod/" + app)
			o := r.Get("opt/" + app)
			if u == 0 || o == 0 {
				return fmt.Errorf("%s missing cold data", app)
			}
			ratio := o / u
			if ratio < 0.5 || ratio > 2.0 {
				return fmt.Errorf("%s cold ratio %.2f outside wash band", app, ratio)
			}
		}
		return nil
	})
}

func TestTable3Shape(t *testing.T) {
	retryShape(t, Table3, func(r *Report) error {
		sizes := SmallScale().DirSizes
		// Every size stays within a noise band; the largest must win
		// outright (readdir caching dominates there).
		for _, size := range sizes {
			u := r.Get("unmod/" + itoa(size))
			o := r.Get("opt/" + itoa(size))
			if o < u*0.92 {
				return fmt.Errorf("listing size=%d: optimized %.0f req/s far below unmod %.0f", size, o, u)
			}
		}
		last := sizes[len(sizes)-1]
		if u, o := r.Get("unmod/"+itoa(last)), r.Get("opt/"+itoa(last)); o <= u {
			return fmt.Errorf("listing size=%d: optimized %.0f req/s <= unmod %.0f", last, o, u)
		}
		return nil
	})
}

func TestTable4Counts(t *testing.T) {
	r := runExp(t, Table4)
	if r.Get("loc/internal/core") < 500 {
		t.Errorf("core module implausibly small: %.0f LoC", r.Get("loc/internal/core"))
	}
	if r.Get("loc/total") < 5000 {
		t.Errorf("total LoC implausibly small: %.0f", r.Get("loc/total"))
	}
}

func TestCoherenceShape(t *testing.T) {
	r := runExp(t, Coherence)
	// The storm must actually exercise coherence machinery: renames and
	// chmods bump seqs and the epoch, churn inserts and removes DLHT
	// entries.
	for _, k := range []string{"events/seq_bump", "events/epoch_bump",
		"events/dlht_insert", "events/dlht_remove"} {
		if r.Get(k) <= 0 {
			t.Errorf("missing or non-positive %s = %.0f", k, r.Get(k))
		}
	}
	if r.Get("journal/total") < r.Get("journal/dropped") {
		t.Errorf("dropped %.0f exceeds total %.0f", r.Get("journal/dropped"), r.Get("journal/total"))
	}
	// The acceptance gate: the auditor never reports a violation on a
	// valid pass, and the quiescent verdict is a clean PASS. On failure
	// the report runExp logged names each finding's check, ref and detail
	// in its "finding:" notes.
	if v := r.Get("audit/violations"); v != 0 {
		t.Errorf("auditor reported %.0f violations during the storm", v)
	}
	if r.Get("audit/final_valid") != 1 {
		t.Error("no valid audit pass at quiescence")
	}
	if v := r.Get("audit/final_violations"); v != 0 {
		t.Errorf("quiescent audit reported %.0f violations", v)
	}
}

func TestRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 19 {
		t.Fatalf("expected 19 experiments, got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Desc == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := Lookup("fig6"); !ok {
		t.Fatal("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup matched a ghost")
	}
}

func TestAblateShape(t *testing.T) {
	retryShape(t, AblateFeatures, func(r *Report) error {
		base := r.Get("mix/baseline")
		full := r.Get("mix/+aliases (all)")
		direct := r.Get("mix/+direct-lookup")
		// The full feature set must not materially regress the mix.
		if full > base*1.08 {
			return fmt.Errorf("full feature set (%.2fms) regressed past baseline (%.2fms)",
				full/1e6, base/1e6)
		}
		// The paper's point about partial deployment: direct lookup alone
		// pays population overhead on every miss; the negative-dentry
		// features must claw that back (full < direct-lookup-only).
		if full >= direct {
			return fmt.Errorf("full set (%.2fms) not faster than direct-lookup-only (%.2fms)",
				full/1e6, direct/1e6)
		}
		return nil
	})
}

func TestAblatePCCShape(t *testing.T) {
	retryShape(t, AblatePCC, func(r *Report) error {
		// A tiny PCC misses more than the paper's 64 KiB one. The entries it
		// evicted still have their DLHT entries, so the misses are answered
		// by re-checking the prefix in place: more re-checks, and no more
		// slow walks than the large PCC takes.
		tiny := r.Get("rechecks/512")
		full := r.Get(fmt.Sprintf("rechecks/%d", 64<<10))
		if tiny <= full {
			return fmt.Errorf("tiny PCC did not force extra prefix re-checks: %v vs %v", tiny, full)
		}
		if ts, fs := r.Get("slow/512"), r.Get(fmt.Sprintf("slow/%d", 64<<10)); ts > fs {
			return fmt.Errorf("tiny PCC's capacity misses fell to the slow walk: %v slow walks vs %v", ts, fs)
		}
		return nil
	})
}

func TestColdStormShape(t *testing.T) {
	r := runExp(t, ColdStorm)
	// Exact over the virtual clock: 8 walkers x 16 cold names cost one
	// LOOKUP per name. A walker that loses the race for a name parks on
	// the winner's in-lookup placeholder or, arriving later, hits the
	// dentry it resolved; without the placeholder racing walkers would
	// each pay their own LOOKUP. How the 112 spared walks split between
	// the two is scheduling (storm/coalesced is reported, and pinned
	// deterministically by vfs's TestMissCoalescing).
	if n := r.Get("storm/lookup_rpcs"); n != coldWidth {
		t.Errorf("storm issued %.0f LOOKUPs over %d walks, want %d (one per name)",
			n, coldStormG*coldWidth, coldWidth)
	}
}
