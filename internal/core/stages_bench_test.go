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
// depths of the sweep, then the stages whose cost does not depend on
// depth — the DLHT probe, the freshness check, the PCC probe, the walk's
// epoch section, and one striped-counter update (a hit performs six).
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
	}

	const path = "/a/b/c/file"
	for i := 0; i < 4; i++ {
		if _, err := root.Stat(path); err != nil {
			b.Fatal(err)
		}
	}
	idx, sg := c.key.HashString(path)
	d := dl.Lookup(uint64(idx), sg)
	if d == nil {
		b.Fatal(path + " not published")
	}
	b.Run("dlht-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if dl.Lookup(uint64(idx), sg) != d {
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
		// One of the six atomic read-modify-writes a hit performs. Three
		// are inside epoch-section above (enter, exit, lookups) and one
		// inside pcc-probe (hits); hashedBytes and fastHits stand alone.
		for i := 0; i < b.N; i++ {
			c.stats.hashedBytes.Add(1)
		}
	})
}

var (
	sinkIdx uint16
	sinkSig sig.Signature
)
