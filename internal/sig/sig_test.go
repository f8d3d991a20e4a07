package sig

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	k := NewKey(42)
	i1, s1 := k.HashString("/usr/include/sys/types.h")
	i2, s2 := k.HashString("/usr/include/sys/types.h")
	if i1 != i2 || s1 != s2 {
		t.Fatalf("same key, same path: got (%v,%v) vs (%v,%v)", i1, s1, i2, s2)
	}
}

func TestKeyedness(t *testing.T) {
	// Different boot keys must yield different signatures for the same
	// path (paper: same path does not generate the same signature across
	// reboots).
	k1, k2 := NewKey(1), NewKey(2)
	_, s1 := k1.HashString("/etc/passwd")
	_, s2 := k2.HashString("/etc/passwd")
	if s1 == s2 {
		t.Fatal("two keys produced identical signatures")
	}
}

func TestResumable(t *testing.T) {
	// Hashing a whole path must equal hashing it in arbitrary chunks —
	// the property dentries rely on to store per-prefix state.
	k := NewKey(7)
	path := "/home/alice/projects/dcache/internal/core/fastpath.go"
	wantIdx, wantSig := k.HashString(path)

	for cut := 0; cut <= len(path); cut++ {
		st := k.NewState().AppendString(path[:cut]).AppendString(path[cut:])
		idx, s := st.Sum()
		if idx != wantIdx || s != wantSig {
			t.Fatalf("cut=%d: got (%v,%v) want (%v,%v)", cut, idx, s, wantIdx, wantSig)
		}
	}

	// Byte-at-a-time must match too.
	st := k.NewState()
	for i := 0; i < len(path); i++ {
		st = st.AppendByte(path[i])
	}
	idx, s := st.Sum()
	if idx != wantIdx || s != wantSig {
		t.Fatal("byte-at-a-time mismatch")
	}
}

func TestResumableProperty(t *testing.T) {
	k := NewKey(99)
	f := func(a, b string) bool {
		if len(a)+len(b) > MaxPathLen {
			a = a[:MaxPathLen/4]
			b = b[:min(len(b), MaxPathLen/4)]
		}
		split, whole := k.NewState().AppendString(a).AppendString(b), k.NewState().AppendString(a+b)
		i1, s1 := split.Sum()
		i2, s2 := whole.Sum()
		return i1 == i2 && s1 == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStateValueSemantics(t *testing.T) {
	// Extending a state must not disturb the original (dentries hand out
	// their stored state for children to extend).
	k := NewKey(3)
	base := k.NewState().AppendString("/var")
	_, before := base.Sum()
	_ = base.AppendString("/log/syslog")
	_, after := base.Sum()
	if before != after {
		t.Fatal("AppendString mutated the receiver state")
	}
}

func TestPrefixDistinctFromWhole(t *testing.T) {
	// "/a" and "/a/b" share accumulator structure; the length fold must
	// separate a path from its prefixes even when the suffix bytes are NUL
	// (multiplier 0).
	k := NewKey(5)
	_, s1 := k.HashString("/a")
	_, s2 := k.HashString("/a\x00")
	if s1 == s2 {
		t.Fatal("NUL-padded path collided with its prefix")
	}
}

func TestEmptyPath(t *testing.T) {
	k := NewKey(11)
	i1, s1 := k.HashString("")
	i2, s2 := k.HashString("/")
	if i1 == i2 && s1 == s2 {
		t.Fatal(`"" and "/" collided`)
	}
	if s1.Zero() {
		t.Fatal("empty path hashed to the zero sentinel")
	}
}

// TestLane1IsTheSignaturesLane: the one-lane hash the shard ring routes by
// is bit for bit W[1] of the full signature, so computing it alone moved no
// key on the ring. Past MaxPathLen, where HashString panics, it hashes the
// prefix that fits.
func TestLane1IsTheSignaturesLane(t *testing.T) {
	long := strings.Repeat("/component", MaxPathLen/10+1)
	for _, seed := range []uint64{1, 11, 0x5ead_c0de_0001} {
		k := NewKey(seed)
		for _, s := range []string{"", "/", "/srv", "/srv/app3/lib/pkg17", "shard-2/vnode-63", long[:MaxPathLen]} {
			_, sg := k.HashString(s)
			if got := k.Lane1(s); got != sg.W[1] {
				t.Errorf("seed %#x: Lane1(%.20q…) = %#x, signature lane 1 = %#x", seed, s, got, sg.W[1])
			}
		}
		if k.Lane1(long) != k.Lane1(long[:MaxPathLen]) {
			t.Errorf("seed %#x: an overlong path does not hash as its first MaxPathLen bytes", seed)
		}
	}
}

// TestIndexIsTheSumsIndex: Index computes Sum's index alone, and a key
// SharedKey hands out is NewKey's for the seed, the same one each time.
func TestIndexIsTheSumsIndex(t *testing.T) {
	for _, seed := range []uint64{1, 11, 0x5ead_c0de_0001} {
		k := SharedKey(seed)
		if k != SharedKey(seed) {
			t.Fatalf("seed %#x: SharedKey made a second key", seed)
		}
		for _, s := range []string{"", "/", "/srv", "/srv/app3/lib/pkg17"} {
			st := k.NewState().AppendString(s)
			idx, sg := st.Sum()
			if got := st.Index(); got != idx {
				t.Errorf("seed %#x: Index(%q) = %d, Sum's index %d", seed, s, got, idx)
			}
			if _, want := NewKey(seed).HashString(s); sg != want {
				t.Errorf("seed %#x: the shared key signs %q differently from NewKey's", seed, s)
			}
		}
	}
}

func TestNoCollisionsOnRealisticCorpus(t *testing.T) {
	// Generate a corpus of realistic path strings and verify zero
	// collisions across both signature and (index, signature) pairs.
	k := NewKey(0xfeedface)
	rng := rand.New(rand.NewSource(1))
	comps := []string{"usr", "lib", "share", "bin", "etc", "home", "alice",
		"bob", "src", "include", "kernel", "fs", "mm", "net", "drivers"}
	seen := make(map[Signature]string)
	n := 0
	for i := 0; i < 30000; i++ {
		p := ""
		depth := 1 + rng.Intn(8)
		for d := 0; d < depth; d++ {
			p += "/" + comps[rng.Intn(len(comps))]
		}
		// Add a distinguishing leaf so paths are unique.
		p += "/f" + itoa(i)
		_, s := k.HashString(p)
		if prev, dup := seen[s]; dup && prev != p {
			t.Fatalf("signature collision: %q vs %q", prev, p)
		}
		seen[s] = p
		n++
	}
	if n != len(seen) {
		t.Fatalf("expected %d unique signatures, got %d", n, len(seen))
	}
}

func TestIndexDistribution(t *testing.T) {
	// The 16-bit index should spread realistic paths across buckets; a
	// crude chi-square-free check: no bucket should get > 32x its fair
	// share over 64k samples into 1024 coarse bins.
	k := NewKey(1234)
	const samples = 65536
	bins := make([]int, 1024)
	for i := 0; i < samples; i++ {
		idx, _ := k.HashString("/work/tree/node" + itoa(i))
		bins[idx%1024]++
	}
	fair := samples / 1024
	for b, c := range bins {
		if c > 32*fair {
			t.Fatalf("bin %d grossly overloaded: %d (fair %d)", b, c, fair)
		}
	}
}

func TestFitsAndBounds(t *testing.T) {
	k := NewKey(8)
	st := k.NewState()
	if !st.Fits(MaxPathLen) {
		t.Fatal("empty state should fit MaxPathLen bytes")
	}
	long := make([]byte, MaxPathLen)
	for i := range long {
		long[i] = 'x'
	}
	st = st.AppendString(string(long))
	if st.Fits(1) {
		t.Fatal("full state claims to fit more")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("append past MaxPathLen did not panic")
		}
	}()
	st.AppendByte('y')
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkHashPath(b *testing.B) {
	k := NewKey(1)
	path := "/usr/include/x86_64-linux-gnu/sys/types.h"
	b.SetBytes(int64(len(path)))
	for i := 0; i < b.N; i++ {
		k.HashString(path)
	}
}

func BenchmarkAppendComponent(b *testing.B) {
	k := NewKey(1)
	base := k.NewState().AppendString("/usr/include/sys")
	for i := 0; i < b.N; i++ {
		st := base.AppendString("/types.h")
		st.Sum()
	}
}
