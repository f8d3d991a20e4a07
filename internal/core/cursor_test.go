package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dircache/internal/audit"
	"dircache/internal/cred"
	"dircache/internal/fsapi"
	"dircache/internal/sig"
)

// TestWarmFastpathHashesPathOnce pins what HashedBytes (and so
// sig.hashed_bytes_per_op) means: the bytes a walk actually feeds the
// path hash. A warm TryFast hit whose directory prefix the memo holds
// hashes its last component and one separator, and nothing else — the
// prefix's bytes were hashed once, by the first scan that walked it from a
// start of that length. A prefix with "." or ".." is never memoized, so
// such a path hashes every ordinary component from the walk start, and
// "." and ".." hash nothing. The miss below the deep directory comes
// first: a miss leaves the prefix in the memo too, and a miss's path
// changes nothing a later hit hashes.
func TestWarmFastpathHashesPathOnce(t *testing.T) {
	k, _, root := auditFixture(t)
	for _, p := range []string{"/w", "/w/x", "/w/x/y", "/w/x/y/z"} {
		if err := root.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Create("/w/x/y/z/f1", 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, p := range []string{"/w/x/y/z", "/w/x/y/z/f1"} {
			if _, err := root.Stat(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := root.Stat("/w/x/y/z/nope"); !errors.Is(err, fsapi.ENOENT) {
		t.Fatalf("want ENOENT, got %v", err)
	}

	for _, tc := range []struct {
		name, cwd, path string
		want, memo      int
	}{
		{"absolute", "/", "/w/x/y/z/f1", len("/f1"), 1},
		{"cwd-relative", "/w/x", "y/z/f1", len("/f1"), 1},
		{"dot-dot", "/", "/w/x/../x/./y/z/f1", len("/w/x") + len("/x/y/z/f1"), 0},
	} {
		if err := root.Chdir(tc.cwd); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // admit this spelling of the path
			if _, err := root.Stat(tc.path); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		before := k.Stats()
		if _, err := root.Stat(tc.path); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := k.Stats().Delta(before)
		if got := d.FastHits; got != 1 {
			t.Fatalf("%s: warm stat took %d fastpath hits, want 1", tc.name, got)
		}
		if got := d.HashedBytes; got != int64(tc.want) {
			t.Errorf("%s: warm hit hashed %d bytes of %q, want %d", tc.name, got, tc.path, tc.want)
		}
		if got := d.PrefixMemoHits; got != int64(tc.memo) {
			t.Errorf("%s: warm hit took %d prefixes from the memo, want %d", tc.name, got, tc.memo)
		}
	}
}

// TestCursorSpillBeyondInlineStack walks paths deeper than the cursor's
// 24-frame inline stack through both consumers of pathCursor — the
// TryFast scan and the population-side lexical hash — and confirms the
// spill path publishes and fast-hits exactly like shallow paths.
func TestCursorSpillBeyondInlineStack(t *testing.T) {
	k, c, root := auditFixture(t)

	var b strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "/d%02d", i)
		if err := root.Mkdir(b.String(), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	deep := b.String() + "/leaf"
	if err := root.Create(deep, 0o644); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		if _, err := root.Stat(deep); err != nil {
			t.Fatal(err)
		}
	}
	if c.k.Stats().Populations == 0 {
		t.Fatal("deep path never admitted: lexicalHash spill failed")
	}
	before := k.Stats().FastHits
	if _, err := root.Stat(deep); err != nil {
		t.Fatal(err)
	}
	if k.Stats().FastHits == before {
		t.Fatal("31-component path never fast-hits: scan spill failed")
	}

	// Down 30 directories, back up 8 — through the spill boundary into
	// the inline stack — and down again: every ".." un-hashes a component
	// held in the overflow slice or the inline array, and the path must
	// land on the signature the plain spelling published.
	var dirs []string
	for i := 0; i < 30; i++ {
		dirs = append(dirs, fmt.Sprintf("d%02d", i))
	}
	yoyo := "/" + strings.Join(dirs, "/") + strings.Repeat("/..", 8) + "/" + strings.Join(dirs[22:], "/") + "/leaf"
	for i := 0; i < 3; i++ {
		if _, err := root.Stat(yoyo); err != nil {
			t.Fatal(err)
		}
	}
	before = k.Stats().FastHits
	if _, err := root.Stat(yoyo); err != nil {
		t.Fatal(err)
	}
	if k.Stats().FastHits == before {
		t.Fatal("path popping back through the spill boundary never fast-hits")
	}

	if _, checked := c.AuditFindings(8); checked["dlht_sig"] == 0 {
		t.Fatal("audit never recomputed the deep signature")
	}
	if findings, _ := c.AuditFindings(8); len(findings) != 0 {
		t.Fatalf("audit dirty after deep-path spill: %+v", findings)
	}
}

// FuzzCursorPushPop drives a pathCursor with arbitrary sequences of
// pushes, "." and ".." from a working directory three levels deep, so
// pops run off the cursor's own stack and on up the base toward the task
// root, and long runs of pushes cross the inline stack into the spill
// slice and back. After every step the cursor's state must sum to the
// signature of the lexically canonical path hashed from scratch: that is
// what makes un-hashing a component a sound replacement for restoring a
// saved state.
func FuzzCursorPushPop(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})          // ".." past the base to the root and beyond
	f.Add([]byte{2, 1, 3, 0, 1, 4, 0, 0}) // push . push .. . push .. ..
	f.Add(append(bytes.Repeat([]byte{5}, 40), bytes.Repeat([]byte{0}, 45)...))
	f.Add(append(append(bytes.Repeat([]byte{7}, 26), 0, 0, 0, 0), 9, 10, 11, 12, 0))

	_, c, root := auditFixture(f)
	if err := root.Chdir("/a/b/c"); err != nil {
		f.Fatal(err)
	}
	names := []string{"x", "yy", "lib", "node_modules", "a.b", "...", strings.Repeat("n", 255)}

	f.Fuzz(func(t *testing.T, ops []byte) {
		model := []string{"a", "b", "c"}
		var cur pathCursor
		if !cur.init(c, root.Cwd()) {
			t.Fatal("cwd has no signature state")
		}
		for i, op := range ops {
			switch {
			case op == 0:
				if !cur.pop(c, root) {
					t.Fatalf("step %d: pop failed", i)
				}
				if len(model) > 0 {
					model = model[:len(model)-1]
				}
			case op == 1: // ".": the scan loops skip it without touching the cursor
			default:
				name := names[int(op)%len(names)]
				if !cur.push(name) {
					if n := len(strings.Join(model, "/")) + 1 + len(name) + 1; n <= sig.MaxPathLen {
						t.Fatalf("step %d: push refused a %d-byte path", i, n)
					}
					return
				}
				model = append(model, name)
			}
			canon := ""
			for _, m := range model {
				canon += "/" + m
			}
			wantIdx, wantSig := c.key.HashString(canon)
			if idx, sg := cur.st.Sum(); idx != wantIdx || sg != wantSig {
				t.Fatalf("step %d (op %d): cursor at %q sums to %#x %v, HashString gives %#x %v", i, op, canon, idx, sg, wantIdx, wantSig)
			}
		}
	})
}

// TestDeepWalkInvariantUnderShootdowns races walks below a 12-directory
// spine against chmod churn and batched rename shootdowns over that
// spine. Only success and ENOENT (the mid-rename window) are legal
// answers, and the auditor must be clean once the storm quiesces.
func TestDeepWalkInvariantUnderShootdowns(t *testing.T) {
	k, c, root := auditFixture(t)

	var b strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "/s%02d", i)
		if err := root.Mkdir(b.String(), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	spine := b.String()
	for i := 0; i < 8; i++ {
		if err := root.Create(fmt.Sprintf("%s/f%d", spine, i), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	iters := 1500
	if testing.Short() {
		iters = 150
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			task := k.NewTask(cred.Root())
			for i := 0; i < iters; i++ {
				if _, err := task.Stat(fmt.Sprintf("%s/f%d", spine, (seed+i)%8)); err != nil && !errors.Is(err, fsapi.ENOENT) {
					panic(fmt.Sprintf("deep stat: %v", err))
				}
				if _, err := task.Stat(spine + "/absent"); err != nil && !errors.Is(err, fsapi.ENOENT) {
					panic(fmt.Sprintf("deep negative stat: %v", err))
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		task := k.NewTask(cred.Root())
		for i := 0; i < iters; i++ {
			// Batched shootdown over the whole spine, then restore.
			if err := task.Rename("/s00", "/moved"); err == nil {
				task.Rename("/moved", "/s00")
			}
			task.Chmod("/s00/s01", fsapi.Mode(0o755))
			if i%8 == 0 {
				k.Shrink(8)
			}
		}
	}()
	wg.Wait()

	// Quiesced: the old location must be walkable again end to end.
	if _, err := root.Stat(spine + "/f0"); err != nil {
		t.Fatalf("stable deep path lost after storm: %v", err)
	}
	if r := audit.New(k, c).RunUntilValid(5); !r.Valid || r.Violations() != 0 {
		t.Fatalf("audit dirty after shootdown storm: %s", r.Summary())
	}
}

// TestLexicalHashZeroAlloc: population's cursor and its dentry stack live
// in lexicalHash's frame, so hashing a path the inline stacks hold — here
// exactly cursorInline pushes deep, with "." and ".." on the way —
// allocates nothing. A cursor that escapes costs one heap object per
// populating walk; `make memscale-smoke` runs this beside the compiler's
// own escape report.
func TestLexicalHashZeroAlloc(t *testing.T) {
	_, c, root := auditFixture(t)
	dir := ""
	for i := 0; i < cursorInline-1; i++ {
		dir += fmt.Sprintf("/p%02d", i)
		if err := root.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Create(dir+"/leaf", 0o644); err != nil {
		t.Fatal(err)
	}
	path := "/p00/./p01/../p01" + strings.TrimPrefix(dir, "/p00/p01") + "/leaf"
	ns := root.Namespace()
	dl, pcc := ns.DLHT(), c.pccFor(root.Cred())
	leaf, err := root.Walk(dir+"/leaf", 0)
	if err != nil {
		t.Fatal(err)
	}
	var want sig.State
	if !c.pathState(leaf, &want, true) {
		t.Fatal("no signature state for the leaf")
	}

	var st sig.State
	hash := func() {
		ok := c.lexicalHash(root, ns, dl, pcc, root.Root(), path, c.BeginSlow(), &st)
		if !ok || st != want {
			t.Fatalf("lexicalHash(%q) = %+v, %v; want the leaf's canonical state %+v", path, st, ok, want)
		}
	}
	hash() // the ".." publishes /p00/p01 once; after that nothing is new
	if avg := testing.AllocsPerRun(200, hash); avg != 0 {
		t.Fatalf("lexicalHash of a %d-component path allocates: %.2f allocs/op, want 0", cursorInline, avg)
	}

	// The other population route: the dentry's own state, then publish.
	// The state is stored in the dentry's own slot, not behind a pointer,
	// so a first publication (the unpublish between runs makes every run
	// one) and a republication of an admitted dentry allocate nothing.
	populate := func() {
		if !c.pathState(leaf, &st, false) {
			t.Fatal("no signature state for the leaf")
		}
		c.publish(dl, leaf, &st, c.BeginSlow())
	}
	first := func() {
		c.unpublish(leaf.D, 0)
		populate()
	}
	for name, fn := range map[string]func(){"first": first, "again": populate} {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Fatalf("pathState+publish (%s) allocates: %.2f allocs/op, want 0", name, avg)
		}
	}
	if fast(leaf.D).InTable.Load() != dl {
		t.Fatal("the leaf was never published")
	}
}
