package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dircache"
	"dircache/internal/telemetry"
)

// The bench tests run each experiment once at SmallScale and assert the
// paper's claims on the work its passes counted (CacheStats.Delta over a
// fixed number of operations): exactly where the count is a formula in
// the op count, as an ordering where it is a property of the workload. No
// test reads a clock. The rates the experiments print vary with the host
// and its load, and the relations only a rate can state are printed, not
// asserted.

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

// want fails t unless r holds v under key.
func want(t *testing.T, r *Report, key string, v float64) {
	t.Helper()
	got, ok := r.Data[key]
	if !ok {
		t.Errorf("%s missing, want %.0f", key, v)
	} else if got != v {
		t.Errorf("%s = %.0f, want %.0f", key, got, v)
	}
}

// ops is SmallScale's operation count per measured pass.
var ops = float64(SmallScale().Ops)

func TestFig1Shape(t *testing.T) {
	// Fig 1's time fraction is a rate, printed only. Counted: every
	// utility's pass makes path-based calls, and each one walks the cache.
	r := runExp(t, Fig1)
	for _, app := range appCases() {
		paths, lookups := r.Get("paths/"+app.name), r.Get("lookups/"+app.name)
		if paths == 0 || lookups < paths {
			t.Errorf("%s: %.0f path arguments, %.0f walks", app.name, paths, lookups)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	// The era ordering is a rate, printed only. Counted: every baseline
	// era resolves the 8-component path a component at a time; the
	// optimized design answers each stat with one fastpath hit.
	r := runExp(t, Fig2)
	for _, era := range []string{"v2.6.36", "v3.0", "v3.14"} {
		want(t, r, "stat/"+era+"/components", 8*ops)
		want(t, r, "stat/"+era+"/fast_hits", 0)
	}
	want(t, r, "stat/v3.14-opt/fast_hits", ops)
	want(t, r, "stat/v3.14-opt/components", 0)
}

// warmHash is what a warm stat of path hashes and whether its directory
// prefix comes from the prefix memo: a prefix of one or more components
// without "." or ".." does, and then only the last component and its '/'
// are hashed; otherwise the whole path is.
func warmHash(path string) (hashed, memoHits float64) {
	slash := strings.LastIndexByte(path, '/')
	if slash > 0 && !strings.Contains(path, "/.") {
		return float64(len(path)-slash) * ops, ops
	}
	return float64(len(path)) * ops, 0
}

func TestFig3Shape(t *testing.T) {
	// The baseline pays a hash lookup and a permission check per
	// component; the optimized walk's per-component work was hashing the
	// path's bytes, and warm, the prefix memo leaves only the last
	// component's.
	r := runExp(t, Fig3)
	for _, pt := range microPaths {
		if !strings.HasSuffix(pt.name, "-comp") {
			continue
		}
		depth := float64(strings.Count(pt.path, "/"))
		want(t, r, pt.name+"/unmod/components", depth*ops)
		want(t, r, pt.name+"/opt/components", 0)
		want(t, r, pt.name+"/opt/fast_hits", ops)
		hashed, memoHits := warmHash(pt.path)
		want(t, r, pt.name+"/opt/hashed_bytes", hashed)
		want(t, r, pt.name+"/opt/prefix_memo_hits", memoHits)
	}
}

// fig6Components is what the baseline's component walk resolves per stat
// of each Fig 6 path: every name but "..", a symlink's target too, and
// nothing past a missing name.
var fig6Components = map[string]float64{
	"default": 5, "1-comp": 1, "2-comp": 2, "4-comp": 4, "8-comp": 8,
	"link-f": 5, "link-d": 5, "neg-f": 4, "neg-d": 1, "1-dotdot": 2, "4-dotdot": 5,
}

func TestFig6Shape(t *testing.T) {
	r := runExp(t, Fig6)
	for _, pt := range microPaths {
		key := func(cfg, field string) string { return "stat/" + pt.name + "/" + cfg + "/" + field }
		comps := fig6Components[pt.name] * ops
		want(t, r, key("unmod", "components"), comps)
		// Warm, every pattern is one fastpath hit and no component,
		// symlinks and missing names included.
		want(t, r, key("opt", "fast_hits"), ops)
		want(t, r, key("opt", "components"), 0)
		dots := float64(strings.Count(pt.path, ".."))
		switch {
		case pt.negative:
			want(t, r, key("opt", "fast_neg"), ops)
		case dots > 0:
			// Linux semantics check each ".." against the tree; lexical
			// semantics fold it into the path before hashing.
			want(t, r, key("opt", "dotdot_checks"), dots*ops)
			want(t, r, key("opt-lexical", "fast_hits"), ops)
			want(t, r, key("opt-lexical", "dotdot_checks"), 0)
		default:
			hashed, _ := warmHash(pt.path)
			want(t, r, key("opt", "hashed_bytes"), hashed)
		}
		_, memoHits := warmHash(pt.path)
		want(t, r, key("opt", "prefix_memo_hits"), memoHits)
		if !pt.negative {
			// A prefix check cache miss falls back to the baseline's walk.
			want(t, r, key("opt-miss+slow", "slow_walks"), ops)
			want(t, r, key("opt-miss+slow", "components"), comps)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	// The paper's chmod cost is linear in the cached subtree. Here a chmod
	// is one seq bump and one range mark whatever the subtree holds, and
	// so is each of the two renames of a rename round trip. The name a
	// rename leaves stays cached as a negative (§5.2), so only the first
	// rename of the pass asks the file system about its target; the
	// baseline asks on every rename.
	r := runExp(t, Fig7)
	for _, st := range SmallScale().SubtreeSizes {
		key := func(op, mode string) string { return fmt.Sprintf("%s/%d/%s", op, st.Files, mode) }
		want(t, r, key("chmod", "opt")+"/seq_bumps", ops)
		want(t, r, key("chmod", "opt")+"/batch_shootdowns", ops)
		want(t, r, key("rename", "opt")+"/seq_bumps", 2*ops)
		want(t, r, key("rename", "opt")+"/batch_shootdowns", 2*ops)
		want(t, r, key("rename", "opt")+"/fs_lookups", 1)
		want(t, r, key("rename", "unmod")+"/fs_lookups", 2*ops)
	}
}

func TestFig8Shape(t *testing.T) {
	// Per-thread scaling is a rate, printed only. Counted: no walk at any
	// thread count leaves the fastpath.
	r := runExp(t, Fig8)
	for _, th := range SmallScale().Threads {
		key := fmt.Sprintf("stat/%d/opt", th)
		want(t, r, key+"/lookups", float64(th)*ops)
		want(t, r, key+"/slow_walks", 0)
	}
}

func TestFig9Shape(t *testing.T) {
	// A complete directory lists from the cache, and a name it does not
	// hold is known missing without asking the file system: the baseline
	// pays one FS readdir per listing and one FS lookup per mkstemp.
	r := runExp(t, Fig9)
	for _, size := range SmallScale().DirSizes {
		key := func(op, mode string) string { return fmt.Sprintf("%s/%d/%s", op, size, mode) }
		want(t, r, key("readdir", "unmod")+"/readdir_fs", r.Get(key("readdir", "unmod")+"/listings"))
		want(t, r, key("readdir", "opt")+"/readdir_fs", 0)
		want(t, r, key("mkstemp", "unmod")+"/fs_lookups", ops)
		want(t, r, key("mkstemp", "opt")+"/fs_lookups", 0)
	}
}

func TestFig10Shape(t *testing.T) {
	// Throughput is a rate, printed only. Counted: the optimized server
	// re-reads its mailboxes and finds its messages without the file
	// system; the baseline re-reads a directory from it every operation.
	r := runExp(t, Fig10)
	for _, size := range SmallScale().MailboxSizes {
		want(t, r, fmt.Sprintf("opt/%d/readdir_fs", size), 0)
		want(t, r, fmt.Sprintf("opt/%d/fs_lookups", size), 0)
		if u := r.Get(fmt.Sprintf("unmod/%d/readdir_fs", size)); u < float64(SmallScale().DovecotOps) {
			t.Errorf("mailbox=%d: baseline read %.0f directories from the FS in %d operations",
				size, u, SmallScale().DovecotOps)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	r := runExp(t, Table1)
	// The metadata-bound winners of the paper walk fewer components
	// optimized: the fastpath answers their warm stats whole.
	for _, app := range []string{"find -name", "du -s", "updatedb -U usr", "git status", "git diff"} {
		if u, o := r.Get("unmod/"+app+"/components"), r.Get("opt/"+app+"/components"); o >= u {
			t.Errorf("%s: optimized walked %.0f components, baseline %.0f", app, o, u)
		}
	}
	// Warm-cache hit rates are high (paper: 84-100%).
	for _, app := range []string{"find -name", "du -s", "git status"} {
		if hit := r.Get("hit/" + app); hit < 80 {
			t.Errorf("%s hit rate %.1f%% below warm-cache expectation", app, hit)
		}
	}
	// make shows a significant negative dentry rate (paper: ~20%).
	if neg := r.Get("neg/make"); neg < 5 {
		t.Errorf("make negative rate %.1f%% too low; header probes should miss", neg)
	}
}

func TestTable2Shape(t *testing.T) {
	// A cold cache is a wash (paper: all within noise): the read-only
	// utilities ask the file system the same questions on both systems,
	// and no utility asks the optimized one more.
	r := runExp(t, Table2)
	readOnly := map[string]bool{"find -name": true, "du -s": true, "updatedb -U usr": true,
		"git status": true, "git diff": true}
	for _, app := range appCases() {
		u, o := r.Get("unmod/"+app.name+"/fs_lookups"), r.Get("opt/"+app.name+"/fs_lookups")
		if o > u || readOnly[app.name] && o != u {
			t.Errorf("%s: cold FS lookups optimized %.0f, baseline %.0f", app.name, o, u)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	// The req/s are a rate, printed only. Counted: every optimized listing
	// comes from the cache, every baseline listing from the file system.
	r := runExp(t, Table3)
	for _, size := range SmallScale().DirSizes {
		want(t, r, fmt.Sprintf("opt/%d/readdir_fs", size), 0)
		want(t, r, fmt.Sprintf("unmod/%d/readdir_fs", size), r.Get(fmt.Sprintf("requests/%d", size)))
	}
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
	// chmods bump seqs and the epoch, the replaced file removes a DLHT
	// entry (TestCoherenceRemovesEntry) and its successors are inserted.
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

// TestCoherenceRemovesEntry pins, without the storm, what the storm's
// dlht_remove count rests on. An unlink keeps the file's DLHT entry: the
// dentry turns negative in place (§5.2) and the entry answers ENOENT on
// the fastpath. The mutator's first round removes /src/churn's published
// entry by renaming a new file over it.
func TestCoherenceRemovesEntry(t *testing.T) {
	sys := dircache.New(dircache.Optimized())
	sys.EnableTelemetry(dircache.TelemetryOptions{})
	p := sys.Start(dircache.RootCreds())
	if err := coherenceTree(p); err != nil {
		t.Fatal(err)
	}
	removes := func() uint64 { return sys.Telemetry().EventCounts()[telemetry.JDLHTRemove] }

	const gone = "/src/d0/f0"
	for i := 0; i < 2; i++ { // past admission control
		if _, err := p.Stat(gone); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Unlink(gone); err != nil {
		t.Fatal(err)
	}
	before := sys.Stats()
	_, err := p.Stat(gone)
	if d := sys.Stats().Delta(before); !errors.Is(err, dircache.ErrNotExist) || d.FastNeg != 1 {
		t.Errorf("stat of an unlinked file: %v, %d fastpath negatives, want ENOENT from the fastpath", err, d.FastNeg)
	}
	if n := removes(); n != 0 {
		t.Errorf("unlink removed %d DLHT entries, want 0 (the negative keeps its entry)", n)
	}

	coherenceMutate(p, 0)
	if n := removes(); n != 1 {
		t.Errorf("the mutator's first round removed %d DLHT entries, want 1 (/src/churn's)", n)
	}
	if rep := sys.Doctor(); !rep.Valid || rep.Violations() != 0 {
		t.Errorf("audit after the round: valid=%v, %d violations", rep.Valid, rep.Violations())
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
	// The paper's point about partial deployment, in components walked
	// over SmallScale's tree: direct lookup alone answers the warm stats
	// but not the missing-header probes, and the negative-dentry features
	// claw those back.
	//
	// The tree is 6 top directories of 10 files (/src/top/f, 3
	// components) with 3 subdirectories of 10 files each (/src/top/sub/f,
	// 4): 240 files, 900 components. The measured pass is a file's second
	// touch, the one admission publishes it on, so its Lstat still walks
	// slow — except, under +direct-lookup, the 48 files (every fifth) the
	// warm pass also reached through /srclink, which now hit. Every
	// directory is published and memoized by then, so each slow Lstat
	// resumes at the file's directory and walks 1 component: 192 under
	// +direct-lookup, 240 with every feature (its /srclink stats go
	// through alias dentries and leave the real ones at one touch). The
	// 80 ".ghost" probes (every third file) resume the same way, 1
	// component each, until deep negatives answer them. The 80
	// /src/include/missing/X.h probes walk all 3 components: their
	// directory is a negative dentry, never a resume point. The 48
	// /srclink stats walk 228 components from the start: without alias
	// dentries nothing is published under a path through the link, so
	// their directories are not resume points either. So: +direct-lookup 192 + 80 + 240 + 228 = 740, and with
	// every feature only the 240 Lstats' last components are left.
	r := runExp(t, AblateFeatures)
	want(t, r, "mix/baseline/components", 1705)
	want(t, r, "mix/+direct-lookup/components", 740)
	want(t, r, "mix/+aliases (all)/components", 240)
}

func TestAblatePCCShape(t *testing.T) {
	// A tiny PCC misses more than the paper's 64 KiB one. The entries it
	// evicted still have their DLHT entries, so the misses are answered by
	// re-checking the prefix in place: more re-checks, and no more slow
	// walks than the large PCC takes.
	r := runExp(t, AblatePCC)
	full := 64 << 10
	if tiny, big := r.Get("rechecks/512"), r.Get(fmt.Sprintf("rechecks/%d", full)); tiny <= big {
		t.Errorf("tiny PCC did not force extra prefix re-checks: %.0f vs %.0f", tiny, big)
	}
	if ts, fs := r.Get("slow/512"), r.Get(fmt.Sprintf("slow/%d", full)); ts > fs {
		t.Errorf("tiny PCC's capacity misses fell to the slow walk: %.0f slow walks vs %.0f", ts, fs)
	}
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
