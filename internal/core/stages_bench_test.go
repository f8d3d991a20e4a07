package core

import (
	"fmt"
	"testing"

	"dircache/internal/sig"
	"dircache/internal/vfs"
)

// BenchmarkFastpathStages times the pieces of one warm fastpath Stat apart
// (DESIGN §5h's budget; `make bench-hotpath` runs it beside the
// end-to-end BenchmarkStatDepth): the scan-and-hash loop at the four
// depths of the sweep, hashing every component, then the warm scan at the
// same depths — the prefix memo's lookup, the delta's application and the
// last component (depth 1 has no prefix and hashes its one component) —
// then the stages whose cost does not depend on depth: the DLHT probe,
// the freshness check, the check that the entry still carries the probed
// key, the PCC probe, the walk's epoch section, and one striped-counter
// update (a hit performs seven).
func BenchmarkFastpathStages(b *testing.B) {
	_, c, root := auditFixture(b)
	ns := root.Namespace()
	dl, pcc := ns.DLHT(), c.pccFor(root.Cred())

	for _, depth := range []int{1, 4, 8, 16} {
		path := "" // the sweep's path; the cursor only hashes it, nothing need exist
		for i := 1; i < depth; i++ {
			path += fmt.Sprintf("/d%02d", i)
		}
		path += "/file"
		b.Run(fmt.Sprintf("scanhash/depth-%d", depth), func(b *testing.B) {
			start := root.Root()
			for i := 0; i < b.N; i++ {
				var cur pathCursor
				if !cur.init(c, start) {
					b.Fatal("no start state")
				}
				for rem := path; ; {
					var comp string
					comp, rem = vfs.NextComponent(rem)
					if comp == "" {
						break
					}
					if !cur.push(comp) {
						b.Fatal("push refused")
					}
				}
				sinkIdx, sinkSig = cur.st.Sum()
			}
		})
		b.Run(fmt.Sprintf("memo-hit/depth-%d", depth), func(b *testing.B) {
			start := root.Root()
			scan := func() {
				var cur pathCursor
				if !cur.init(c, start) {
					b.Fatal("no start state")
				}
				if _, ok := c.scan(root, dl, pcc, &cur, path); !ok {
					b.Fatal("scan fell back")
				}
				sinkIdx, sinkSig = cur.st.Sum()
			}
			scan() // the cold scan leaves the prefix in the memo
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan()
			}
		})
	}

	const path = "/a/b/c/file"
	for i := 0; i < 4; i++ {
		if _, err := root.Stat(path); err != nil {
			b.Fatal(err)
		}
	}
	st := c.key.NewState().AppendString(path)
	d := probe(dl, &st)
	if d == nil {
		b.Fatal(path + " not published")
	}
	b.Run("dlht-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if probe(dl, &st) != d {
				b.Fatal("probe missed")
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !c.fresh(d) {
				b.Fatal("stale")
			}
		}
	})
	b.Run("keyed", func(b *testing.B) {
		st := c.key.NewState().AppendString(path)
		for i := 0; i < b.N; i++ {
			if !c.keyed(d, &st) {
				b.Fatal("entry re-keyed")
			}
		}
	})
	b.Run("pcc-probe", func(b *testing.B) {
		seq := dentrySeq(d)
		for i := 0; i < b.N; i++ {
			if !pcc.Lookup(d.ID(), seq) {
				b.Fatal("pcc missed")
			}
		}
	})
	b.Run("epoch-section", func(b *testing.B) {
		// An empty path leaves the walk at its first check: what is timed
		// is the section's enter and exit plus the lookups counter.
		for i := 0; i < b.N; i++ {
			root.Walk("", 0)
		}
	})
	b.Run("striped-counter", func(b *testing.B) {
		// One of the seven atomic read-modify-writes a memo-served hit
		// performs. Three are inside epoch-section above (enter, exit,
		// lookups), one inside pcc-probe (hits) and one inside memo-hit
		// (prefixMemoHits); hashedBytes and fastHits stand alone.
		for i := 0; i < b.N; i++ {
			c.k.Count(vfs.NHashedBytes, 1)
		}
	})
}

var (
	sinkIdx uint16
	sinkSig sig.Signature
)
