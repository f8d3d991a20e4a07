package sig

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestResumeEquivalenceRandomSplits is the property relative walks rest
// on (TryFast hashes a cwd-relative path from the start dentry's stored
// state): hashing a path from a memoized mid-path state must be
// indistinguishable from hashing it from the root, for any split point.
func TestResumeEquivalenceRandomSplits(t *testing.T) {
	k := NewKey(0xfeed)
	rng := rand.New(rand.NewSource(1))
	segs := []string{"usr", "node_modules", "a", "share", "org", "apache",
		"commons", "src", "main", "java", ".hidden", "very-long-directory-name-x"}

	for trial := 0; trial < 400; trial++ {
		var b strings.Builder
		depth := 1 + rng.Intn(40)
		for i := 0; i < depth && b.Len() < MaxPathLen-64; i++ {
			b.WriteByte('/')
			b.WriteString(segs[rng.Intn(len(segs))])
		}
		path := b.String()
		wantIdx, wantSig := k.HashString(path)

		cut := rng.Intn(len(path) + 1)
		st := k.NewState().AppendString(path[:cut])

		// Plain resume from the live state.
		if idx, sg := sumOf(st.AppendString(path[cut:])); idx != wantIdx || sg != wantSig {
			t.Fatalf("trial %d cut %d: live resume diverged", trial, cut)
		}

		// A second resume from the same state must see no interference
		// from the first (value semantics under sharing — concurrent
		// walks extend one memoized ancestor state).
		if idx, sg := sumOf(st.AppendString(path[cut:])); idx != wantIdx || sg != wantSig {
			t.Fatalf("trial %d cut %d: second resume from shared state diverged", trial, cut)
		}
	}
}

// TestResumeEquivalenceConcurrent extends the property across goroutines:
// many walkers resuming from one shared memoized state (as TryFast scans
// do from a dentry's statePtr snapshot) must each compute the from-root
// answer, interleaved arbitrarily.
func TestResumeEquivalenceConcurrent(t *testing.T) {
	k := NewKey(0xbeef)
	prefix := "/srv/data/projects/deep"
	base := k.NewState().AppendString(prefix)
	suffixes := []string{"/a/b/c", "/x", "/node_modules/pkg/index.js", "/s/t/u/v/w"}
	want := make([]Signature, len(suffixes))
	wantIdx := make([]uint16, len(suffixes))
	for i, sfx := range suffixes {
		wantIdx[i], want[i] = k.HashString(prefix + sfx)
	}

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 2000; i++ {
				j := (g + i) % len(suffixes)
				if idx, sg := sumOf(base.AppendString(suffixes[j])); idx != wantIdx[j] || sg != want[j] {
					done <- errDiverged
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errDiverged = errString("concurrent resume diverged from from-root hash")

type errString string

func (e errString) Error() string { return string(e) }

// sumOf finalizes a state that is not addressable where it is produced.
func sumOf(st State) (uint16, Signature) { return st.Sum() }

// TestAppendUnappendComponent is the property the path cursor's ".."
// rests on: AppendComponent is AppendString("/"+comp) done in place, and
// UnappendComponent undoes it exactly — accumulators and position — so
// unwinding any pushed sequence lands bit-for-bit on the state it grew
// from, including components of 0 and 255 bytes and a path filled to
// MaxPathLen.
func TestAppendUnappendComponent(t *testing.T) {
	k := NewKey(0xab5e)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		base := k.NewState().AppendString(strings.Repeat("/p", rng.Intn(20)))
		var comps []string
		states := []State{base}
		st := base
		for n := rng.Intn(60); len(comps) < n; {
			b := make([]byte, []int{0, 1, 3, 8, 40, 255}[rng.Intn(6)])
			rng.Read(b)
			comp := string(b)
			if !st.Fits(len(comp) + 1) {
				break
			}
			want := st.AppendString("/" + comp)
			st.AppendComponent(comp)
			if st != want {
				t.Fatalf("trial %d: AppendComponent(%q) = %+v, AppendString gives %+v", trial, comp, st, want)
			}
			comps = append(comps, comp)
			states = append(states, st)
		}
		for i := len(comps) - 1; i >= 0; i-- {
			st.UnappendComponent(comps[i])
			if st != states[i] {
				t.Fatalf("trial %d: unappending component %d (%d bytes) gives %+v, want %+v", trial, i, len(comps[i]), st, states[i])
			}
		}
	}

	full := k.NewState().AppendString(strings.Repeat("x", MaxPathLen-4))
	st := full
	st.AppendComponent("end")
	if st.Fits(1) || st.Len() != MaxPathLen {
		t.Fatalf("filled state has Len %d, Fits(1) %v", st.Len(), st.Fits(1))
	}
	st.UnappendComponent("end")
	if st != full {
		t.Fatal("unappend at MaxPathLen did not restore the state")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unappending more than was hashed did not panic")
		}
	}()
	short := k.NewState().AppendString("/a")
	short.UnappendComponent("ab")
}

// TestSharedTornReadsNeverSurface: one writer cycles a Shared through
// states of different paths, clears included, while readers load it
// without the writer's lock. A load that reports a state must report one
// of the states stored, whole — never a header from one and accumulators
// from another — which the version check in Load is there to guarantee.
func TestSharedTornReadsNeverSurface(t *testing.T) {
	k := NewKey(99)
	var states []State
	valid := map[Signature]bool{}
	for _, p := range []string{"", "/a", "/a/bb", "/a/bb/ccc", "/zzzz/y"} {
		st := k.NewState().AppendString(p)
		_, sg := st.Sum()
		states, valid[sg] = append(states, st), true
	}
	var sh Shared
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got State
			for !stop.Load() {
				if !sh.Load(k, &got) {
					continue
				}
				if _, sg := got.Sum(); !valid[sg] {
					t.Errorf("Load reported a state no Store stored: %+v", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 200000; i++ {
		if i%7 == 0 {
			sh.Clear()
		}
		sh.Store(&states[i%len(states)])
		sh.Store(&states[i%len(states)]) // storing what is held writes nothing
	}
	stop.Store(true)
	wg.Wait()
	var got State
	if !sh.Load(k, &got) || got != states[(200000-1)%len(states)] {
		t.Fatalf("the last state stored is not the one loaded: %+v", got)
	}
	sh.Clear()
	if sh.Load(k, &got) {
		t.Fatal("Load reports a state after Clear")
	}
}

// TestSharedHolds: Holds compares the stored state with one in hand —
// true for the state stored, false for any other (a prefix of it, a path
// of the same length, the empty path) and for an empty Shared.
func TestSharedHolds(t *testing.T) {
	k := NewKey(7)
	st := k.NewState().AppendString("/a/bb")
	others := []State{k.NewState(), k.NewState().AppendString("/a"), k.NewState().AppendString("/a/bc"), k.NewState().AppendString("/a/bb/c")}
	var sh Shared
	if sh.Holds(&st) {
		t.Fatal("an empty Shared holds a state")
	}
	sh.Store(&st)
	if !sh.Holds(&st) {
		t.Fatal("a Shared does not hold the state stored")
	}
	for _, o := range others {
		if sh.Holds(&o) {
			t.Fatalf("a Shared storing /a/bb holds the state of a %d-byte path", o.Len())
		}
	}
	sh.Clear()
	if sh.Holds(&st) {
		t.Fatal("a Shared holds a state after Clear")
	}
}

// TestDeltaMovesBetweenStarts is the property the fastpath's prefix memo
// rests on: the delta some bytes added at one position, taken from one
// start, is what they add to any other start at that position — different
// accumulators, same length — so the memo can apply a prefix's delta to a
// walk that starts anywhere as long as it starts that many bytes in.
func TestDeltaMovesBetweenStarts(t *testing.T) {
	k := NewKey(0xde17a)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		b1, b2 := make([]byte, n), make([]byte, n)
		rng.Read(b1)
		rng.Read(b2)
		from1 := k.NewState().AppendString(string(b1))
		from2 := k.NewState().AppendString(string(b2))
		var tail strings.Builder
		for i := rng.Intn(8); i >= 0; i-- {
			tail.WriteByte('/')
			tail.WriteString([]string{"a", "usr", "node_modules", strings.Repeat("z", 255)}[rng.Intn(4)])
		}
		if !from1.Fits(tail.Len()) {
			continue
		}
		to1 := from1.AppendString(tail.String())
		d := to1.Since(&from1)
		if d.At() != n {
			t.Fatalf("trial %d: delta starts at %d, want %d", trial, d.At(), n)
		}
		got := from2
		got.Apply(&d)
		if want := from2.AppendString(tail.String()); got != want {
			t.Fatalf("trial %d: applying the delta of %q gives %+v, appending it gives %+v", trial, tail.String(), got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("applying a delta at another position did not panic")
		}
	}()
	from := k.NewState()
	to := from.AppendString("/a")
	d := to.Since(&from)
	to.Apply(&d)
}
