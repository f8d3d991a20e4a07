package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"dircache/internal/sig"
	"dircache/internal/vfs"
)

// reset empties the memo, as a fresh Core's is.
func (m *prefixMemo) reset() {
	for i := range m.sets {
		for j := range m.sets[i] {
			m.sets[i][j].Store(nil)
		}
	}
	m.entries.Store(0)
	m.bytes.Store(0)
}

// memoTwins are the fuzzer's working directories in pairs of equal
// hashed length and different bytes: a prefix the memo learned from one
// must serve the other, since its delta depends on positions, not on the
// start's accumulators.
var memoTwins = [][2]string{
	{"/", "/"},
	{"/a/b", "/tmp"},
	{"/a/b/c", "/mv/xy"},
	{"/a/b/c/d0/d1/d2", "/mv/xy/q0/q1/q2"},
}

// canonical is path resolved lexically from cwd: the path the scan must
// end up hashing, and whether the scan is obliged to get there — a path
// with no "." or ".." component, no component over 255 bytes, and a
// canonical form within sig.MaxPathLen never falls back.
func canonical(cwd, path string) (canon string, must bool) {
	var model []string
	if !strings.HasPrefix(path, "/") {
		model = strings.FieldsFunc(cwd, func(r rune) bool { return r == '/' })
	}
	must = true
	for _, comp := range strings.Split(path, "/") {
		switch comp {
		case "":
		case ".":
			must = false
		case "..":
			must = false
			if len(model) > 0 {
				model = model[:len(model)-1]
			}
		default:
			must = must && len(comp) <= 255
			model = append(model, comp)
		}
	}
	for _, m := range model {
		canon += "/" + m
	}
	return canon, must && len(canon) <= sig.MaxPathLen
}

// memoServes reports whether a warm scan of path takes its prefix from
// the memo: the last component is an ordinary name and the prefix before
// it holds one or more components, none of them "." or "..".
func memoServes(path string) bool {
	slash := strings.LastIndexByte(path, '/')
	last := path[slash+1:]
	if slash <= 0 || last == "" || last == "." || last == ".." || len(last) > 255 {
		return false
	}
	comps := 0
	for _, comp := range strings.Split(path[:slash], "/") {
		switch comp {
		case "":
		case ".", "..":
			return false
		default:
			comps++
		}
	}
	return comps > 0
}

// FuzzPrefixMemo sends every path through TryFast's scan three times:
// with the memo cold, warm from the same working directory, and warm from
// that directory's twin of the same length. Each pass that the scan
// completes must leave the cursor summing to HashString of the lexically
// canonical path from its own start. The cold and warm passes from one
// directory must agree on everything (completion, depth, trailing '/'),
// the warm ones must take the prefix from the memo wherever it serves,
// and then hash the last component and its '/' alone. A fourth pass from a
// start of another length must still sum right.
func FuzzPrefixMemo(f *testing.F) {
	f.Add(byte(0), ".")
	f.Add(byte(1), "..")
	f.Add(byte(2), "//")
	f.Add(byte(2), "x/y/")
	f.Add(byte(3), "x/yy/z")
	f.Add(byte(3), "../../q/file")
	f.Add(byte(1), "./x/file")
	f.Add(byte(0), "/a/b/c/file")
	f.Add(byte(2), "a//b///c")
	f.Add(byte(1), strings.Repeat("n", 255)+"/"+strings.Repeat("m", 255))
	f.Add(byte(1), strings.Repeat("n", 256)+"/x")
	f.Add(byte(1), "x/"+strings.Repeat("m", 256))
	f.Add(byte(0), strings.Repeat("/"+strings.Repeat("p", 255), sig.MaxPathLen/256)) // exactly MaxPathLen
	f.Add(byte(0), strings.Repeat("/"+strings.Repeat("p", 255), sig.MaxPathLen/256)+"/q")
	f.Add(byte(3), strings.Repeat("d/", (sig.MaxPathLen-len("/a/b/c/d0/d1/d2/leaf"))/2)+"leaf") // exactly MaxPathLen from the deepest start
	f.Add(byte(3), strings.Repeat("d/", 2048)+"leaf")

	k, c, root := auditFixture(f)
	for _, p := range []string{"/a/b/c/d0", "/a/b/c/d0/d1", "/a/b/c/d0/d1/d2", "/mv/xy", "/mv/xy/q0", "/mv/xy/q0/q1", "/mv/xy/q0/q1/q2"} {
		if err := root.Mkdir(p, 0o755); err != nil {
			f.Fatal(err)
		}
	}
	// One task per directory, moved there before fuzzing starts: a chdir
	// is a walk, and its scan would write to the memo between passes.
	tasks := map[string]*vfs.Task{}
	for _, tw := range memoTwins {
		for _, cwd := range tw {
			task := k.NewTask(root.Cred())
			if err := task.Chdir(cwd); err != nil {
				f.Fatal(err)
			}
			tasks[cwd] = task
		}
	}
	dl, pcc := root.Namespace().DLHT(), c.pccFor(root.Cred())

	type pass struct {
		ok, trailing bool
		depth        int
		hashed       int
		memoHits     int64
	}
	// run scans path from cwd and reports how it went and the start's
	// hashed length; short names the path in a failure.
	short := func(path string) string {
		if len(path) > 64 {
			return fmt.Sprintf("%q... (%d bytes)", path[:64], len(path))
		}
		return fmt.Sprintf("%q", path)
	}
	run := func(t *testing.T, cwd, path string) (pass, int) {
		task := tasks[cwd]
		start := task.Cwd()
		if strings.HasPrefix(path, "/") {
			start = task.Root()
		}
		var cur pathCursor
		if !cur.init(c, start) {
			t.Fatalf("%s has no signature state", cwd)
		}
		pos0 := cur.st.Len()
		hits := c.k.Sum(vfs.NPrefixMemoHits)
		var p pass
		p.trailing, p.ok = c.scan(task, dl, pcc, &cur, path)
		cur.flush(c) // the scan's memo hit is counted by the flush, as TryFast's is
		p.depth, p.hashed, p.memoHits = cur.depth(), cur.hashed, c.k.Sum(vfs.NPrefixMemoHits)-hits
		if !p.ok {
			return p, pos0
		}
		canon, _ := canonical(cwd, path)
		wantIdx, wantSig := c.key.HashString(canon)
		if idx, sg := cur.st.Sum(); idx != wantIdx || sg != wantSig {
			t.Fatalf("scan of %s from %s sums to %#x %v, HashString(%s) gives %#x %v", short(path), cwd, idx, sg, short(canon), wantIdx, wantSig)
		}
		return p, pos0
	}

	f.Fuzz(func(t *testing.T, sel byte, path string) {
		twins := memoTwins[int(sel)%len(memoTwins)]
		c.memo.reset()
		cold, pos0 := run(t, twins[0], path)
		if _, must := canonical(twins[0], path); must && !cold.ok {
			t.Fatalf("cold scan of %s from %s fell back", short(path), twins[0])
		}
		if cold.memoHits != 0 {
			t.Fatalf("cold scan of %s took %d prefixes from an empty memo", short(path), cold.memoHits)
		}
		slash := strings.LastIndexByte(path, '/')
		published := slash >= 0 && c.memo.lookup(pos0, path[:slash+1]) != nil
		if n := c.memo.entries.Load(); n != map[bool]int64{true: 1}[published] {
			t.Fatalf("cold scan of %s left %d entries in the memo", short(path), n)
		}
		if _, must := canonical(twins[0], path[:slash+1]); memoServes(path) && must && !published {
			t.Fatalf("cold scan of %s from %s left no prefix in the memo", short(path), twins[0])
		} else if published && !memoServes(path) {
			t.Fatalf("cold scan of %s left its prefix in the memo", short(path))
		}
		warm, _ := run(t, twins[0], path)
		if published != (warm.memoHits == 1) {
			t.Fatalf("warm scan of %s took %d prefixes from the memo, want %d", short(path), warm.memoHits, map[bool]int{true: 1}[published])
		}
		if published && warm.ok && warm.hashed != len(path)-slash {
			t.Fatalf("warm scan of %s hashed %d bytes, want %d: the last component and its '/'", short(path), warm.hashed, len(path)-slash)
		}
		if warm.ok != cold.ok || warm.trailing != cold.trailing || warm.depth != cold.depth {
			t.Fatalf("scans of %s from %s: cold %+v, warm %+v", short(path), twins[0], cold, warm)
		}
		if twin, _ := run(t, twins[1], path); published && twin.memoHits != 1 {
			t.Fatalf("scan of %s from %s did not take the prefix %s's scan left", short(path), twins[1], twins[0])
		}
		// From a start of another length the entry does not apply: run
		// checks the sum, which a delta moved to other positions breaks.
		run(t, memoTwins[(int(sel)+1)%len(memoTwins)][0], path)
	})
}

// TestMemoSetsAligned: every set of a live Core's memo lies in one cache
// line. A field added above the memo moves it; resize Core's pad to match.
func TestMemoSetsAligned(t *testing.T) {
	_, c, _ := auditFixture(t)
	if addr := uintptr(unsafe.Pointer(&c.memo.sets)); addr%64 != 0 {
		t.Fatalf("memo.sets at %#x, %d bytes past a cache line (Core offset %d)",
			addr, addr%64, unsafe.Offsetof(c.memo)+unsafe.Offsetof(c.memo.sets))
	}
}

// TestPrefixMemoCollisionMisses: a set holds four prefixes that hash to
// it, and each is found; a fifth finds the bytes differ and misses, and so
// does one of the four from a start of another length that hashes to the
// set. Publishing the fifth replaces one of the four, and the memo counts
// four entries and their bytes.
func TestPrefixMemoCollisionMisses(t *testing.T) {
	_, c, _ := auditFixture(t)
	m := &c.memo
	m.reset()
	// set collects memoWays+1 prefixes that share a set from start
	// length 0 and draws the names from pattern.
	set := func(pattern string) []string {
		bySet := map[*[memoWays]atomic.Pointer[memoEntry]][]string{}
		for i := 0; ; i++ {
			p := fmt.Sprintf(pattern, i)
			st, _ := m.set(0, p)
			if bySet[st] = append(bySet[st], p); len(bySet[st]) == memoWays+1 {
				return bySet[st]
			}
		}
	}
	delta := func(prefix string) sig.Delta {
		from := c.key.NewState()
		to := from.AppendString(strings.TrimSuffix(prefix, "/"))
		return to.Since(&from)
	}
	full := set("/dir%d/")
	for _, p := range full[:memoWays] {
		m.publish(p, delta(p), 1)
	}
	for _, p := range full[:memoWays] {
		if e := m.lookup(0, p); e == nil || e.prefix != p {
			t.Fatalf("lookup(%q) after publishing it = %+v", p, e)
		}
	}
	fifth := full[memoWays]
	if e := m.lookup(0, fifth); e != nil {
		t.Fatalf("lookup(%q) in a set of %q = %+v, want a miss", fifth, full[:memoWays], e)
	}
	m.publish(fifth, delta(fifth), 1)
	found := 0
	for _, p := range full {
		if m.lookup(0, p) != nil {
			found++
		}
	}
	if m.lookup(0, fifth) == nil || found != memoWays {
		t.Fatalf("after publishing a fifth prefix to a full set, %d of the five are found and the fifth %v", found, m.lookup(0, fifth) != nil)
	}
	st := c.PrefixMemoStats()
	if st.Slots != memoSlots || st.Entries != memoWays {
		t.Fatalf("memo stats %+v, want %d slots and %d entries", st, memoSlots, memoWays)
	}
	if min := int64(memoSlots*8 + memoWays*len(fifth)); st.Bytes < min {
		t.Fatalf("memo accounts %d bytes, want at least %d", st.Bytes, min)
	}

	// The same bytes from a start of another length in the same set: the
	// delta would add their terms at the wrong positions.
	m.reset()
	var same string
	var pos int
	for i := 0; same == ""; i++ {
		p := fmt.Sprintf("/d%d/", i)
		at0, _ := m.set(0, p)
		for q := 1; q <= 64; q++ {
			if atq, _ := m.set(q, p); atq == at0 {
				same, pos = p, q
			}
		}
	}
	m.publish(same, delta(same), 1)
	if e := m.lookup(pos, same); e != nil {
		t.Fatalf("lookup(%q) from a %d-byte start finds the entry published from 0: %+v", same, pos, e)
	}
}
