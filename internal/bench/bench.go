// Package bench regenerates every table and figure of the paper's
// evaluation (§6) against this repository's systems. Each experiment is a
// function from a Scale to a Report; cmd/dcbench prints them and the root
// bench_test.go wires them into testing.B. Every measured point is one
// pass of a fixed number of operations, timed once and counted through
// CacheStats.Delta. The package tests assert the paper's claims on those
// counts, never on the clock: a warm walk is one DLHT probe and no
// component lookups, a miss is answered without the file system, a
// mutation costs one seq bump and one range mark. What only a rate can
// say (Fig 8's scaling, Fig 2's era ordering, Fig 1's time fraction, the
// req/s of Fig 10 and Table 3) is printed, not asserted.
package bench

import (
	"fmt"
	"strings"
	"time"

	"dircache"
	"dircache/internal/workload"
)

// Scale sizes an experiment run. SmallScale keeps tests fast; PaperScale
// approximates the paper's parameters at laptop scale.
type Scale struct {
	// Ops is the operation count of a timed pass, which runs once per
	// measured point (a Fig 9 listing counts as its size in operations).
	Ops int
	// Tree sizes generated source trees.
	Tree workload.TreeSpec
	// UsrScale sizes the updatedb tree.
	UsrScale int
	// DirSizes are the directory sizes for Figure 9 / Table 3.
	DirSizes []int
	// SubtreeSizes are (depth, files) pairs for Figure 7.
	SubtreeSizes []Subtree
	// Threads is the concurrency ladder for Figure 8.
	Threads []int
	// MailboxSizes is Figure 10's ladder; Mailboxes the box count.
	MailboxSizes []int
	Mailboxes    int
	// DovecotOps is the operation count per Figure 10 point.
	DovecotOps int
	// WebRequests is the request count per Table 3 point.
	WebRequests int
	// MemEntries is the entry-count ladder for the memscale experiment
	// (cached dentries held live per measurement point).
	MemEntries []int
}

// Subtree is one Figure 7 configuration.
type Subtree struct {
	Depth int
	Files int
}

// SmallScale returns a fast configuration for tests.
func SmallScale() Scale {
	return Scale{
		Ops: 5_000,
		Tree: workload.TreeSpec{ // ~800 files: small but above the noise floor
			Seed: 1, TopDirs: 6, Depth: 2, DirsPerLevel: 3,
			FilesPerDir: 10, HeaderEvery: 3, FileBytes: 256,
		},
		UsrScale:     2,
		DirSizes:     []int{10, 100},
		SubtreeSizes: []Subtree{{0, 1}, {1, 10}, {2, 100}},
		Threads:      []int{1, 2, 4},
		MailboxSizes: []int{100, 400},
		Mailboxes:    3,
		DovecotOps:   900,
		WebRequests:  200,
		MemEntries:   []int{20_000, 100_000},
	}
}

// PaperScale approximates §6's parameters.
func PaperScale() Scale {
	return Scale{
		Ops:          50_000,
		Tree:         workload.LinuxSource(),
		UsrScale:     4,
		DirSizes:     []int{10, 100, 1000, 10000},
		SubtreeSizes: []Subtree{{0, 1}, {1, 10}, {2, 100}, {3, 1000}, {4, 10000}},
		Threads:      []int{1, 2, 4, 8, 12},
		MailboxSizes: []int{500, 1000, 2000, 2500, 3000},
		Mailboxes:    10,
		DovecotOps:   4000,
		WebRequests:  2000,
		MemEntries:   []int{1_000_000, 10_000_000},
	}
}

// Report is one regenerated table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// Data holds structured values for assertions, keyed
	// "series/point" → value.
	Data map[string]float64
}

func newReport(id, title string, header ...string) *Report {
	return &Report{ID: id, Title: title, Header: header, Data: map[string]float64{}}
}

func (r *Report) add(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Report) put(key string, v float64) { r.Data[key] = v }

// Get returns a structured value (0 if absent).
func (r *Report) Get(key string) float64 { return r.Data[key] }

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered runner.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Scale) (*Report, error)
}

// Experiments lists every table and figure runner in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "fraction of execution time in path-based calls", Fig1},
		{"fig2", "stat latency across kernel synchronization eras", Fig2},
		{"fig3", "lookup latency breakdown by phase", Fig3},
		{"fig6", "stat/open latency over path patterns", Fig6},
		{"fig7", "chmod/rename latency vs cached subtree size", Fig7},
		{"fig8", "lookup latency vs thread count", Fig8},
		{"fig9", "readdir and mkstemp latency vs directory size", Fig9},
		{"fig10", "Dovecot maildir server throughput", Fig10},
		{"table1", "warm-cache application performance", Table1},
		{"table2", "cold-cache application performance", Table2},
		{"table3", "Apache directory listing throughput", Table3},
		{"table4", "lines of code by module", Table4},
		{"ablate", "per-feature ablation on a warm metadata mix", AblateFeatures},
		{"ablate-pcc", "PCC size sensitivity (updatedb)", AblatePCC},
		{"coherence", "coherence event rates, journal health, invariant audit", Coherence},
		{"coldstorm", "cold-miss storm over remotefs: concurrent walkers, one LOOKUP per name", ColdStorm},
		{"connstorm", "9P connection storm: coalesced cold walks, warm wire RPCs and latency", ConnStorm},
		{"memscale", "memory-scale dentries: slab arenas vs pointer heap (bytes/entry, GC pause, walk p99)", Memscale},
		{"shardstorm", "sharded metadata tier: aggregate warm stat/s and journal-driven cross-shard coherence", Shardstorm},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// measure runs op n times on sys in one timed pass and returns the mean
// ns/op with the work CacheStats counted over exactly those n calls.
func measure(sys *dircache.System, n int, op func()) (float64, dircache.CacheStats) {
	before := sys.Stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
	return ns, sys.Stats().Delta(before)
}

// modes names the two systems of an A/B point, baseline first.
var modes = [2]string{"unmod", "opt"}

// sysPair builds matching baseline and optimized systems with fixed
// signature seeds for reproducibility.
func sysPair() (unmod, opt *dircache.System) {
	unmod = dircache.New(dircache.Baseline())
	o := dircache.Optimized()
	o.SignatureSeed = 0xd1cac4e
	opt = dircache.New(o)
	return unmod, opt
}

// fmtNS renders nanoseconds.
func fmtNS(v float64) string { return fmt.Sprintf("%.0f", v) }

// fmtUS renders microseconds from ns.
func fmtUS(v float64) string { return fmt.Sprintf("%.2f", v/1000) }

// fmtGain renders a relative improvement of optimized over baseline.
func fmtGain(base, opt float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (base-opt)/base*100)
}
