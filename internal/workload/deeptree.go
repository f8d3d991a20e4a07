package workload

import (
	"fmt"
	"math/rand"

	"dircache"
)

// DeepSpec sizes a generated deep tree: one long directory spine with
// leaf files at the bottom, plus sibling decoys at every level so the
// spine is not the only child anywhere. This is the workload shape where
// walk cost scales with depth — maven repositories and node_modules
// trees routinely nest 15–60 directories.
type DeepSpec struct {
	// Seed makes generation deterministic.
	Seed int64
	// Depth is the number of directories on the spine.
	Depth int
	// Shape picks the naming style: "maven" (groupId/artifactId/version
	// nesting) or "node" (alternating node_modules/<package>).
	Shape string
	// Fanout is the number of sibling decoy directories per spine level
	// (0 = a bare spine).
	Fanout int
	// Leaves is the number of files created in the deepest directory.
	Leaves int
}

// DeepTree records what GenerateDeepTree built.
type DeepTree struct {
	Base   string
	Spine  []string // spine directories, shallowest first
	Leaves []string // files in the deepest spine directory
}

var mavenSegs = []string{
	"org", "apache", "commons", "maven", "plugins", "repository", "snapshots",
	"src", "main", "java", "resources", "target", "classes", "io", "github",
	"core", "impl", "api", "util", "internal",
}

var nodePkgs = []string{
	"lodash", "react", "webpack", "babel-core", "minimist", "chalk",
	"debug", "glob", "semver", "rimraf", "async", "commander", "express",
	"uuid", "yargs", "inherits",
}

// GenerateDeepTree materializes a deterministic deep tree under base and
// returns its spine and leaves. Segment names are drawn per-level from
// the shape's vocabulary, suffixed with the level index so every level
// is distinct and regeneration with the same spec is reproducible.
func GenerateDeepTree(p *dircache.Process, base string, spec DeepSpec) (*DeepTree, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	t := &DeepTree{Base: base}
	if err := p.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir := base
	for lvl := 0; lvl < spec.Depth; lvl++ {
		var seg string
		switch spec.Shape {
		case "node":
			// node_modules/<pkg>/node_modules/<pkg>/... — the classic
			// npm dependency-nesting shape.
			if lvl%2 == 0 {
				seg = "node_modules"
			} else {
				seg = fmt.Sprintf("%s-%d", nodePkgs[rng.Intn(len(nodePkgs))], lvl)
			}
		default: // "maven"
			seg = fmt.Sprintf("%s%d", mavenSegs[rng.Intn(len(mavenSegs))], lvl)
		}
		for d := 0; d < spec.Fanout; d++ {
			decoy := fmt.Sprintf("%s/decoy%d-%d", dir, lvl, d)
			if err := p.Mkdir(decoy, 0o755); err != nil {
				return nil, err
			}
		}
		dir = dir + "/" + seg
		if err := p.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		t.Spine = append(t.Spine, dir)
	}
	for f := 0; f < spec.Leaves; f++ {
		leaf := fmt.Sprintf("%s/leaf%03d.bin", dir, f)
		if err := p.WriteFile(leaf, []byte("x"), 0o644); err != nil {
			return nil, err
		}
		t.Leaves = append(t.Leaves, leaf)
	}
	return t, nil
}
