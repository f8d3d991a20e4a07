package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dircache"
	"dircache/internal/coherence"
	"dircache/internal/fsapi"
)

// tier is a two-shard deployment as the apply tests see it: each shard's
// System (probed directly, so a peer answers from its own cache), the
// router in front, and a cold oracle over the same backend. It is built
// once in process (Local shards) and once over loopback 9P (Wire
// shards, records applied by Tshoot).
type tier struct {
	systems []*dircache.System
	router  *Router
	oracle  *dircache.System
}

var applyCreds = []struct {
	name string
	c    dircache.Creds
}{{"root", dircache.RootCreds()}, {"uid1000", dircache.UserCreds(1000, 1000)}}

func newTier(t *testing.T, wire bool) *tier {
	t.Helper()
	cfg := dircache.Optimized()
	cfg.SignatureSeed = 0x5eed
	var tr *tier
	if wire {
		g := newWireGroup(t, 2)
		tr = &tier{systems: g.Systems, router: g.Router}
		cfg.Root = g.Backend
	} else {
		g := newTestGroup(t, 2)
		tr = &tier{systems: g.Systems, router: g.Router}
		cfg.Root = g.Backend
	}
	tr.oracle = dircache.New(cfg)
	// A live process pins the oracle's root through DropCaches.
	op := tr.oracle.Start(dircache.RootCreds())
	t.Cleanup(op.Exit)
	return tr
}

// raw is a root process straight on the shard that owns path: what it
// does reaches the backend and that shard's cache, and what it publishes
// runApplyCase drops before the mutation under test.
func (tr *tier) raw(path string) *dircache.Process {
	return tr.systems[tr.router.Owner(path)].Start(dircache.RootCreds())
}

// The tree every case starts from, all of it root's and open to others,
// so chmod 000 on /srv/d is a revocation for uid 1000 and for nobody else.
var applyFiles = []string{"/srv/d/g.txt", "/srv/d/h.txt", "/srv/d/sub/f.txt"}

// buildApplyTree creates it through the router, converging between levels
// (a peer that listed the parent before this level existed holds a listing
// only the pumped create records reopen).
func buildApplyTree(t testing.TB, r *Router) {
	t.Helper()
	for _, dir := range []string{"/srv", "/srv/d", "/srv/d/sub"} {
		if err := r.Mkdir(dir, 0o755); err != nil {
			t.Fatalf("Mkdir %s: %v", dir, err)
		}
		if !r.Converge(0) {
			t.Fatal("set-up did not converge")
		}
	}
	for _, f := range applyFiles {
		if err := r.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatalf("WriteFile %s: %v", f, err)
		}
	}
	if !r.Converge(0) {
		t.Fatal("set-up did not converge")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// applyProbes are the paths whose answers are compared after the pump:
// everything a case's mutation can make appear, vanish or change.
var applyProbes = []string{
	"/srv", "/srv/d", "/srv/d/g.txt", "/srv/d/g.txt/x", "/srv/d/h.txt", "/srv/d/new.txt",
	"/srv/d/sub", "/srv/d/sub/f.txt", "/srv/moved", "/srv/moved/g.txt", "/srv/moved/sub/f.txt",
}

// answers renders what p says about every probe: Stat and Lstat (the
// attributes a peer can hold stale, or the errno) and ReadDir (the names,
// or the errno).
func answers(p *dircache.Process) []string {
	var out []string
	for _, path := range applyProbes {
		for i, stat := range []func(string) (dircache.FileInfo, error){p.Stat, p.Lstat} {
			fi, err := stat(path)
			if err != nil {
				out = append(out, fmt.Sprintf("stat%d %s: %v", i, path, fsapi.ToErrno(err)))
			} else {
				out = append(out, fmt.Sprintf("stat%d %s: type=%v perm=%o uid=%d gid=%d ino=%d", i, path, fi.Type, fi.Perm, fi.UID, fi.GID, fi.Inode))
			}
		}
		ents, err := p.ReadDir(path)
		line := fmt.Sprintf("readdir %s: %v", path, fsapi.ToErrno(err))
		if err == nil {
			names := map[string]bool{}
			for _, e := range ents {
				names[e.Name] = true
			}
			line = fmt.Sprintf("readdir %s: %v", path, names)
		}
		out = append(out, line)
	}
	return out
}

// applyCase is one note of the differential table: the record's path, a
// raw step that makes the path exist when the peer was warmed without it
// (the "cached negative" state), a raw step run just before the mutation,
// and the routed mutation that publishes the record.
type applyCase struct {
	note   string
	path   string
	create func(t *testing.T, tr *tier) // raw: bring path into existence
	before func(t *testing.T, tr *tier) // raw: last step before mutate, may be nil
	mutate func(r *Router) error
}

func rawFile(path string) func(*testing.T, *tier) {
	return func(t *testing.T, tr *tier) { must(t, tr.raw(path).WriteFile(path, []byte("x"), 0o644)) }
}

func rawDirD(t *testing.T, tr *tier) {
	p := tr.raw("/srv/d")
	must(t, p.Mkdir("/srv/d", 0o755))
	must(t, p.MkdirAll("/srv/d/sub", 0o755))
	for _, f := range applyFiles {
		must(t, p.WriteFile(f, []byte("x"), 0o644))
	}
}

var applyCases = []applyCase{
	{note: "perm", path: "/srv/d", create: rawDirD,
		mutate: func(r *Router) error { return r.Chmod("/srv/d", 0) }},
	{note: "rename", path: "/srv/d", create: rawDirD,
		mutate: func(r *Router) error { return r.Rename("/srv/d", "/srv/moved") }},
	// With something cached below the name — the ENOTDIR negative the
	// owner's stat of g.txt/x leaves — the unlink's record is its bracket's.
	{note: "unlink", path: "/srv/d/g.txt", create: rawFile("/srv/d/g.txt"),
		before: func(t *testing.T, tr *tier) {
			p := tr.raw("/srv/d/g.txt")
			for i := 0; i < 2; i++ {
				if _, err := p.Stat("/srv/d/g.txt/x"); fsapi.ToErrno(err) != fsapi.ENOTDIR {
					t.Fatalf("stat under a file: %v, want ENOTDIR", err)
				}
			}
		},
		mutate: func(r *Router) error { return r.Unlink("/srv/d/g.txt") }},
	// The name is free when the create runs: a peer warmed while it
	// existed holds a positive the raw unlink never told it about.
	{note: "create", path: "/srv/d/new.txt", create: func(*testing.T, *tier) {},
		before: func(t *testing.T, tr *tier) {
			if err := tr.raw("/srv/d/new.txt").Unlink("/srv/d/new.txt"); err != nil && fsapi.ToErrno(err) != fsapi.ENOENT {
				t.Fatal(err)
			}
		},
		mutate: func(r *Router) error { return r.WriteFile("/srv/d/new.txt", []byte("y"), 0o600) }},
	{note: "rename-dst", path: "/srv/d/h.txt", create: func(*testing.T, *tier) {},
		mutate: func(r *Router) error { return r.Rename("/srv/d/g.txt", "/srv/d/h.txt") }},
}

// The four things a peer can hold about the record's path when it arrives.
const (
	heldFull     = "full path cached"
	heldParent   = "parent cached only"
	heldNothing  = "nothing cached"
	heldNegative = "path cached negative"
)

// TestPeerAppliesRecord is the differential table for the peer's apply
// path: five notes × four peer states × two credentials, through Local
// shards and through loopback Wire shards. After the mutation and ONE
// pump, every shard's own answers — attributes, names and errnos, fast
// path and slow — equal the cold oracle's; the audit is clean; every
// record reached every peer. A "perm" record on a cached path must do that
// without evicting: chmod 000 on /srv/d turns uid 1000's fast hits below
// it into EACCES on the peer while the children's dentries — and their
// DLHT entries — stay.
func TestPeerAppliesRecord(t *testing.T) {
	for _, wire := range []bool{false, true} {
		for _, c := range applyCases {
			for _, held := range []string{heldFull, heldParent, heldNothing, heldNegative} {
				name := fmt.Sprintf("wire=%v/%s/%s", wire, c.note, held)
				t.Run(name, func(t *testing.T) { runApplyCase(t, wire, c, held) })
			}
		}
	}
}

func runApplyCase(t *testing.T, wire bool, c applyCase, held string) {
	tr := newTier(t, wire)
	buildApplyTree(t, tr.router)
	r := tr.router

	// Put the record's path in the state the peers are to be warmed in.
	switch {
	case held == heldNegative:
		// Absent while the peers look, so that they cache a negative.
		p := tr.raw(c.path)
		if c.path == "/srv/d" {
			must(t, p.RemoveAll("/srv/d"))
		} else if err := p.Unlink(c.path); err != nil && fsapi.ToErrno(err) != fsapi.ENOENT {
			t.Fatal(err)
		}
	case c.note == "create":
		rawFile(c.path)(t, tr) // present while the peers look
	}
	for _, sys := range tr.systems {
		sys.DropCaches()
		if held == heldNothing {
			continue
		}
		for _, cr := range applyCreds {
			p := sys.Start(cr.c)
			for touch := 0; touch < 2; touch++ { // admission publishes on the second
				if held == heldParent {
					p.Stat(parentOf(c.path))
					p.ReadDir(parentOf(parentOf(c.path)))
					continue
				}
				answers(p)
			}
			p.Exit()
		}
	}
	if held == heldNegative {
		c.create(t, tr)
	}
	if c.before != nil {
		c.before(t, tr)
	}
	// What the raw steps published (a create over a cached negative says
	// "perm") is lost, so the peers still hold what they were warmed with
	// when the record under test arrives.
	r.dropPending()
	resident := make([]int, len(tr.systems))
	for i, sys := range tr.systems {
		resident[i] = sys.DentryCount()
	}
	pub0, app0, _ := r.Stats()

	if err := c.mutate(r); err != nil {
		t.Fatalf("mutation: %v", err)
	}
	r.Pump()

	pub, app, fall := r.Stats()
	if pub == pub0 {
		t.Fatal("the mutation published no record")
	}
	if want := (pub - pub0) * uint64(len(tr.systems)-1); app-app0 != want || fall != 0 {
		t.Fatalf("published %d, applied %d (want %d), fallbacks %d", pub-pub0, app-app0, want, fall)
	}
	if c.note == "perm" && held == heldFull {
		for i, sys := range tr.systems {
			if n := sys.DentryCount(); n < resident[i] {
				t.Errorf("shard %d holds %d dentries, %d before the perm record: it evicted", i, n, resident[i])
			}
			// The record keeps its class on the peer: the DLHT entries below
			// /srv/d outlive it, so root — still granted — is answered from
			// the table with its prefix re-checked in place.
			p := sys.Start(dircache.RootCreds())
			before := sys.Stats()
			for _, f := range applyFiles {
				if _, err := p.Stat(f); err != nil {
					t.Errorf("shard %d: root's stat of %s after the perm record: %v", i, f, err)
				}
			}
			if d := sys.Stats().Delta(before); d.DLHTMisses != 0 || d.SlowWalks != 0 {
				t.Errorf("shard %d: the perm record unpublished: %d DLHT misses and %d slow walks re-reading %d files below it, want 0", i, d.DLHTMisses, d.SlowWalks, len(applyFiles))
			}
			p.Exit()
		}
	}
	tr.oracle.DropCaches()
	for _, cr := range applyCreds {
		op := tr.oracle.Start(cr.c)
		want := answers(op)
		op.Exit()
		for i, sys := range tr.systems {
			p := sys.Start(cr.c)
			for pass := 0; pass < 2; pass++ { // the second pass rides what the first repopulated
				for k, got := range answers(p) {
					if got != want[k] {
						t.Errorf("shard %d as %s, pass %d:\n got  %s\n want %s", i, cr.name, pass, got, want[k])
					}
				}
			}
			p.Exit()
		}
	}
	if c.note == "perm" {
		// The agreement above was about a revocation: uid 1000 is refused
		// below /srv/d.
		u := tr.systems[0].Start(applyCreds[1].c)
		if _, err := u.Stat("/srv/d/g.txt"); fsapi.ToErrno(err) != fsapi.EACCES {
			t.Errorf("uid 1000 below the chmod-000 directory: %v, want EACCES", err)
		}
		u.Exit()
	}
	var findings []string
	truth := func(path string) (bool, error) {
		op := tr.oracle.Start(dircache.RootCreds())
		defer op.Exit()
		_, err := op.Lstat(path)
		if err != nil && fsapi.ToErrno(err) != fsapi.ENOENT {
			return false, err
		}
		return err == nil, nil
	}
	if wire {
		truth = nil // Wire shards are opaque to the stale probe
		for i, sys := range tr.systems {
			for _, f := range sys.Doctor().Findings {
				findings = append(findings, fmt.Sprintf("shard %d: %v", i, f))
			}
		}
	}
	for _, f := range r.Audit(truth) {
		findings = append(findings, f.String())
	}
	if len(findings) != 0 {
		t.Errorf("audit: %v", findings)
	}
}

// TestPeerApplyPermStorm: walkers on every shard, as root and as uid 1000,
// stat below /srv/d while the owner alternates its mode between 0755 and
// 0000 and pumps. A phase counter moves before each Chmod and after the
// Pump that follows it, so a walk that reads one phase on both sides ran
// wholly after the record reached its shard: uid 1000 must then see
// EACCES under 0000 and the file under 0755, root the file throughout.
func TestPeerApplyPermStorm(t *testing.T) {
	tr := newTier(t, false)
	buildApplyTree(t, tr.router)
	toggles := 200
	if testing.Short() {
		toggles = 40
	}
	const revoked = 2 // phase&3: 0 granted, 1 revoking, 2 revoked, 3 granting
	var phase atomic.Uint64
	var stop atomic.Bool
	var checked [2]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		cr := applyCreds[w%2]
		p := tr.systems[w/2%len(tr.systems)].Start(cr.c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Exit()
			for i := w; !stop.Load(); i++ {
				path := applyFiles[i%len(applyFiles)]
				before := phase.Load()
				_, err := p.Stat(path)
				// Eight spinning walkers would leave the toggler a turn every
				// few scheduler quanta; yielding here gives it one per walk.
				runtime.Gosched()
				if phase.Load() != before || before&1 != 0 {
					continue
				}
				want := fsapi.Errno(0)
				if before&3 == revoked && cr.name != "root" {
					want = fsapi.EACCES
				}
				checked[before&3>>1].Add(1)
				if got := fsapi.ToErrno(err); got != want {
					t.Errorf("walker %d (%s): %s answered %v in stable phase %d, want %v", w, cr.name, path, got, before&3, want)
					stop.Store(true)
				}
			}
		}()
	}
	for i := 0; i < toggles && !stop.Load(); i++ {
		for _, mode := range []uint32{0, 0o755} {
			phase.Add(1)
			if err := tr.router.Chmod("/srv/d", mode); err != nil {
				t.Error(err)
			}
			tr.router.Pump()
			phase.Add(1)
			for n := checked[0].Load() + checked[1].Load(); !stop.Load() && checked[0].Load()+checked[1].Load() < n+16; {
				runtime.Gosched()
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if checked[0].Load() == 0 || checked[1].Load() == 0 {
		t.Fatalf("judged %d granted and %d revoked walks: the storm never overlapped a stable phase", checked[0].Load(), checked[1].Load())
	}
	for i, sys := range tr.systems {
		if r := sys.Doctor(); len(r.Findings) != 0 {
			t.Errorf("shard %d after the storm: %v", i, r.Findings)
		}
	}
}

// TestPendingNeverWraps: a cursor ahead of the log's head — issued before
// a restart — is a reader that fell behind, not one with 2^64 records to
// go; Router.Lag and dcsh top render what Pending says.
func TestPendingNeverWraps(t *testing.T) {
	g := newTestGroup(t, 2)
	if err := g.Router.Mkdir("/srv", 0o755); err != nil {
		t.Fatal(err)
	}
	l := g.Locals[g.Router.Owner("/srv")]
	if got := l.Pending(0); got != 1 {
		t.Fatalf("Pending(0) = %d after one record", got)
	}
	if got := l.Pending(1); got != 0 {
		t.Fatalf("Pending(head) = %d", got)
	}
	for _, cursor := range []uint64{2, 1 << 40, ^uint64(0)} {
		if got := l.Pending(cursor); got != coherence.Capacity {
			t.Errorf("Pending(%d) past the head = %d, want the log's capacity %d", cursor, got, coherence.Capacity)
		}
		if _, _, fell := l.EventsSince(cursor); !fell {
			t.Errorf("EventsSince(%d) past the head did not report fell-behind", cursor)
		}
	}
}

// warmTier is a two-shard in-process tier over the apply tree with every
// file statted twice through the router (admission publishes on the
// second touch), for the allocation guards and benchmarks below.
func warmTier(tb testing.TB) *Group {
	tb.Helper()
	g := newTestGroup(tb, 2)
	buildApplyTree(tb, g.Router)
	for touch := 0; touch < 2; touch++ {
		for _, f := range applyFiles {
			if _, err := g.Router.Stat(f); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return g
}

// permPeer returns the shard that serves /srv/d's children — the peer of
// the shard that owns /srv/d itself when the ring splits them, and the one
// with the most cached below the directory either way.
func permPeer(g *Group) *Local { return g.Locals[g.Router.Owner("/srv/d/g.txt")] }

// TestRouterStatZeroAlloc: a warm routed stat — route, owner's fastpath,
// telemetry on as NewLocalGroup leaves it — allocates nothing.
func TestRouterStatZeroAlloc(t *testing.T) {
	g := warmTier(t)
	if avg := testing.AllocsPerRun(500, func() {
		for _, f := range applyFiles {
			if _, err := g.Router.Stat(f); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Fatalf("a warm Router.Stat allocates %.2f per %d stats", avg, len(applyFiles))
	}
}

// TestPeerApplyPermAllocs: applying a "perm" record in place costs a peer
// no more allocations than the Chmod it mirrors costs its owner.
func TestPeerApplyPermAllocs(t *testing.T) {
	g := warmTier(t)
	owner := g.Locals[g.Router.Owner("/srv/d")]
	mode := uint32(0o755)
	chmod := testing.AllocsPerRun(200, func() {
		mode ^= 0o005
		if err := owner.Chmod("/srv/d", mode); err != nil {
			t.Fatal(err)
		}
	})
	peer := permPeer(g)
	before := peer.Sys.DentryCount()
	rec := coherence.Record{Path: "/srv/d", Note: "perm"}
	apply := testing.AllocsPerRun(200, func() { peer.Invalidate(rec) })
	t.Logf("allocs: perm record applied %.1f, local Chmod %.1f", apply, chmod)
	if apply > chmod {
		t.Fatalf("applying a perm record allocates %.1f, the local Chmod %.1f", apply, chmod)
	}
	if n := peer.Sys.DentryCount(); n != before {
		t.Fatalf("the peer holds %d dentries after the perm records, %d before", n, before)
	}
}

var statSink uint64

// BenchmarkRouterStat: one warm stat through the router (DESIGN §8, "what
// one routed stat costs").
func BenchmarkRouterStat(b *testing.B) {
	g := warmTier(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fi, err := g.Router.Stat(applyFiles[i%len(applyFiles)])
		if err != nil {
			b.Fatal(err)
		}
		statSink += fi.Inode
	}
}

// BenchmarkPeerApplyPerm: one "perm" record applied to a peer that holds
// the directory and its children, and the stats that re-earn the three
// files' fastpath entries behind the range mark — what a remote chmod
// costs the peer end to end.
func BenchmarkPeerApplyPerm(b *testing.B) {
	g := warmTier(b)
	peer := permPeer(g)
	rec := coherence.Record{Path: "/srv/d", Note: "perm"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peer.Invalidate(rec)
		for _, f := range applyFiles {
			fi, err := peer.Stat(f)
			if err != nil {
				b.Fatal(err)
			}
			statSink += fi.Inode
		}
	}
}
