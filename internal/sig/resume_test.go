package sig

import (
	"math/rand"
	"strings"
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
		if idx, sg := st.AppendString(path[cut:]).Sum(); idx != wantIdx || sg != wantSig {
			t.Fatalf("trial %d cut %d: live resume diverged", trial, cut)
		}

		// A second resume from the same state must see no interference
		// from the first (value semantics under sharing — concurrent
		// walks extend one memoized ancestor state).
		if idx, sg := st.AppendString(path[cut:]).Sum(); idx != wantIdx || sg != wantSig {
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
				if idx, sg := base.AppendString(suffixes[j]).Sum(); idx != wantIdx[j] || sg != want[j] {
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
