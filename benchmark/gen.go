package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// The generator owns a model of the tree it asks the system to build.
// Every op the stream holds points at a target, and the target says what
// the system must answer; the executors compare each answer with it. The
// program under test sees only the generated paths.

// treeSpec sizes a generated tree: topDirs directories under base, each
// nesting dirsPerLevel subdirectories down to depth, filesPerDir regular
// files in every directory but base.
type treeSpec struct {
	base         string
	topDirs      int
	depth        int
	dirsPerLevel int
	filesPerDir  int
	fileBytes    int
}

type dirNode struct {
	path    string
	parent  int // index in model.dirs; base is its own parent
	depth   int // base is 0
	entries int // names directly below, of any type
}

type fileNode struct {
	path string
	dir  int // index of the parent in model.dirs
}

// model is the generator's picture of the tree. A directory's parent
// precedes it in dirs.
type model struct {
	spec  treeSpec
	dirs  []dirNode
	files []fileNode
	links []linkNode
}

// linkNode is a symlink in base pointing at a directory.
type linkNode struct {
	path   string
	target int // index in model.dirs
}

// Names have a fixed length per kind and seeded letters, so every seed
// gives another tree with the same distribution of path lengths.
func randName(rng *rand.Rand, prefix string, n int, suffix string) string {
	var b strings.Builder
	b.WriteString(prefix)
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + rng.Intn(26)))
	}
	b.WriteString(suffix)
	return b.String()
}

func genModel(spec treeSpec, rng *rand.Rand) *model {
	m := &model{spec: spec}
	m.dirs = append(m.dirs, dirNode{path: spec.base})
	for head := 0; head < len(m.dirs); head++ {
		d := m.dirs[head]
		if d.depth > 0 {
			for f := 0; f < spec.filesPerDir; f++ {
				m.addFile(head, randName(rng, fmt.Sprintf("f%02d", f), 5, ".c"))
			}
		}
		fan := spec.dirsPerLevel
		if d.depth == 0 {
			fan = spec.topDirs
		}
		if d.depth < spec.depth {
			for s := 0; s < fan; s++ {
				m.addDir(head, randName(rng, fmt.Sprintf("d%02d", s), 4, ""))
			}
		}
	}
	return m
}

func (m *model) addDir(parent int, name string) int {
	p := &m.dirs[parent]
	p.entries++
	m.dirs = append(m.dirs, dirNode{path: p.path + "/" + name, parent: parent, depth: p.depth + 1})
	return len(m.dirs) - 1
}

func (m *model) addFile(parent int, name string) int {
	p := &m.dirs[parent]
	p.entries++
	m.files = append(m.files, fileNode{path: p.path + "/" + name, dir: parent})
	return len(m.files) - 1
}

func (m *model) addLink(name string, target int) {
	m.dirs[0].entries++
	m.links = append(m.links, linkNode{path: m.dirs[0].path + "/" + name, target: target})
}

// fsBuilder is what materialize needs from a system: the three calls that
// create the model's nodes, and a barrier between tree levels (the sharded
// tier converges there; the others do nothing).
type fsBuilder interface {
	Mkdir(path string, perm uint32) error
	WriteFile(path string, data []byte, perm uint32) error
	Symlink(target, path string) error
	levelDone() error
}

const (
	dirPerm    = 0o755
	dirPermAlt = 0o750
	filePerm   = 0o644
)

// materialize builds the model's tree level by level: a level's
// directories exist before anything is created below them.
func (m *model) materialize(b fsBuilder) error {
	depth := -1
	for _, d := range m.dirs {
		if d.depth != depth {
			if err := b.levelDone(); err != nil {
				return err
			}
			depth = d.depth
		}
		if err := b.Mkdir(d.path, dirPerm); err != nil {
			return fmt.Errorf("mkdir %s: %w", d.path, err)
		}
	}
	if err := b.levelDone(); err != nil {
		return err
	}
	content := make([]byte, m.spec.fileBytes)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	for _, f := range m.files {
		if err := b.WriteFile(f.path, content, filePerm); err != nil {
			return fmt.Errorf("write %s: %w", f.path, err)
		}
	}
	for _, l := range m.links {
		if err := b.Symlink(m.dirs[l.target].path, l.path); err != nil {
			return fmt.Errorf("symlink %s: %w", l.path, err)
		}
	}
	return b.levelDone()
}

// Op classes. A class names the call sequence an executor makes; the
// target says what it must answer.
const (
	cStat = iota
	cStatRel
	cStatMissing
	cLstatAlias
	cLstat
	cReadDir
	cTmpCycle
	cChmodDir
	cRenameDir
	cToggle
	numClasses
)

var classNames = [numClasses]string{
	"stat", "stat_rel", "stat_missing", "lstat_alias", "lstat", "readdir",
	"tmp_cycle", "chmod_dir", "rename_dir", "toggle",
}

func mutating(class uint8) bool { return class >= cTmpCycle }

// What a target must answer.
const (
	wantFile    = iota // regular file of size target.size
	wantDir            // directory; perm is live in the instance, entries in target.n
	wantMissing        // ENOENT
	wantPool           // a toggled pool file: live in the instance
)

type target struct {
	path  string
	names []string // path split into components below "/", for 9P walks
	kind  uint8
	size  int64
	n     int // entries, for wantDir
	ref   int // model.dirs index for wantDir, pool index for wantPool
}

// op is one record of the stream: the class and the index of its target
// (for cTmpCycle and cToggle, the index into the name pool instead).
type op struct {
	class uint8
	idx   uint32
}

// ringSize is the length of the op stream; workers wrap around it.
const ringSize = 1 << 20

// poolSize bounds the names mutation classes create. Unique names let
// negative dentries pile up and throughput decays over the run (113 k ->
// 35 k ops/s over 12 s in the sizing run), so the windows would not be
// steady state.
const poolSize = 64

// stream is everything a workload's executors read: targets, the op
// ring, and the bounded pool of names the mutating classes use.
type stream struct {
	m       *model
	targets []target
	ops     []op
	pool    []target // kind wantPool (toggles) or wantMissing (tmp cycles)
	poolNew []string // tmp cycles write here, then rename onto pool[i].path
}

func splitPath(p string) []string { return strings.Split(strings.TrimPrefix(p, "/"), "/") }

func (s *stream) add(t target) uint32 {
	t.names = splitPath(t.path)
	s.targets = append(s.targets, t)
	return uint32(len(s.targets) - 1)
}

// newStream makes the node targets: target i < len(dirs) is directory i,
// target len(dirs)+j is file j.
func newStream(m *model) *stream {
	s := &stream{m: m}
	for i, d := range m.dirs {
		s.add(target{path: d.path, kind: wantDir, n: d.entries, ref: i})
	}
	for _, f := range m.files {
		s.add(target{path: f.path, kind: wantFile, size: int64(m.spec.fileBytes)})
	}
	return s
}

func (s *stream) fileTarget(j int) uint32 { return uint32(len(s.m.dirs) + j) }

// fileTargets are the targets of the model's files.
func (s *stream) fileTargets() []target {
	return s.targets[len(s.m.dirs) : len(s.m.dirs)+len(s.m.files)]
}

// hash identifies the stream: same seed, same hash.
func (s *stream) hash() uint64 {
	h := fnv.New64a()
	var b [5]byte
	for _, o := range s.ops {
		b[0] = o.class
		binary.LittleEndian.PutUint32(b[1:], o.idx)
		h.Write(b[:])
	}
	for _, t := range s.targets {
		h.Write([]byte(t.path))
		h.Write([]byte{t.kind})
	}
	for _, t := range s.pool {
		h.Write([]byte(t.path))
	}
	return h.Sum64()
}

// picker draws indices in [0,n): uniform, or Zipf(skew) through a seeded
// permutation so that each seed has another hot set.
type picker struct {
	rng  *rand.Rand
	n    int
	zipf *rand.Zipf
	perm []int
}

func newPicker(rng *rand.Rand, n int, skew float64) *picker {
	p := &picker{rng: rng, n: n}
	if skew > 1 {
		p.zipf = rand.NewZipf(rng, skew, 1, uint64(n-1))
		p.perm = rng.Perm(n)
	}
	return p
}

func (p *picker) next() int {
	if p.zipf != nil {
		return p.perm[p.zipf.Uint64()]
	}
	return p.rng.Intn(p.n)
}

// mix is a class with its share of the stream in percent.
type mix struct {
	class uint8
	share int
	pick  func() uint32
}

// fillMixed fills the ring by drawing each op's class from the shares.
func (s *stream) fillMixed(rng *rand.Rand, classes []mix) {
	total := 0
	for _, c := range classes {
		total += c.share
	}
	if total != 100 {
		panic(fmt.Sprintf("benchmark: op shares sum to %d, not 100", total))
	}
	s.ops = make([]op, ringSize)
	for i := range s.ops {
		r := rng.Intn(100)
		for _, c := range classes {
			if r < c.share {
				s.ops[i] = op{class: c.class, idx: c.pick()}
				break
			}
			r -= c.share
		}
	}
}

// missingTargets adds n ENOENT targets: a missing name in an existing
// directory or, for every second one when deep is set, a name two levels
// below a missing directory.
func (s *stream) missingTargets(rng *rand.Rand, n int, deep bool) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		p := s.m.dirs[rng.Intn(len(s.m.dirs))].path + "/" + randName(rng, "no", 6, "")
		if deep && i%2 == 1 {
			p += "/sub/leaf.c"
		}
		out[i] = s.add(target{path: p, kind: wantMissing})
	}
	return out
}

// tmpPool makes the names tmp cycles create and remove; dirOf gives the
// directory name k lives in.
func (s *stream) tmpPool(dirOf func(k int) int) {
	for k := 0; k < poolSize; k++ {
		p := fmt.Sprintf("%s/tmp-%02d", s.m.dirs[dirOf(k)].path, k)
		s.pool = append(s.pool, target{path: p, names: splitPath(p), kind: wantMissing})
		s.poolNew = append(s.poolNew, p+".new")
	}
}

func pickFrom(rng *rand.Rand, set []uint32) func() uint32 {
	return func() uint32 { return set[rng.Intn(len(set))] }
}

func pickPool(rng *rand.Rand) func() uint32 {
	return func() uint32 { return uint32(rng.Intn(poolSize)) }
}

// linuxTree has the shape of workload.LinuxSource: 2 184 files in 157
// directories, paths of 3 to 5 components.
var linuxTree = treeSpec{base: "/src", topDirs: 12, depth: 3, dirsPerLevel: 3, filesPerDir: 14, fileBytes: 512}

// genWarmStat: the read-only mix of the paper's headline case.
func genWarmStat(rng *rand.Rand) *stream {
	m := genModel(linuxTree, rng)
	// One alias per top directory: base/l<k> -> a directory two levels down.
	var aliasTargets []int
	for i, d := range m.dirs {
		if d.depth == 2 && len(aliasTargets) < linuxTree.topDirs {
			aliasTargets = append(aliasTargets, i)
		}
	}
	for k, t := range aliasTargets {
		m.addLink(fmt.Sprintf("l%02d", k), t)
	}
	s := newStream(m)

	var rel, alias []uint32
	for i, d := range m.dirs {
		if d.depth == 1 { // cwd is base: its children by bare name
			t := s.targets[i]
			t.path = strings.TrimPrefix(d.path, m.spec.base+"/")
			rel = append(rel, s.add(t))
		}
	}
	for j, f := range m.files {
		for k, l := range m.links {
			if f.dir == l.target {
				t := s.targets[s.fileTarget(j)]
				t.path = m.links[k].path + strings.TrimPrefix(f.path, m.dirs[l.target].path)
				alias = append(alias, s.add(t))
			}
		}
	}
	missing := s.missingTargets(rng, 256, true)
	files := newPicker(rng, len(m.files), 1.1)
	s.fillMixed(rng, []mix{
		{cStat, 70, func() uint32 { return s.fileTarget(files.next()) }},
		{cStatRel, 10, pickFrom(rng, rel)},
		{cStatMissing, 10, pickFrom(rng, missing)},
		{cLstatAlias, 10, pickFrom(rng, alias)},
	})
	return s
}

// genChurnMix: reads beside the mutations that invalidate them.
func genChurnMix(rng *rand.Rand) *stream {
	m := genModel(linuxTree, rng)
	s := newStream(m)
	missing := s.missingTargets(rng, 256, false)
	s.tmpPool(func(int) int { return rng.Intn(len(m.dirs)) })
	nodes := newPicker(rng, len(s.targets)-len(missing), 1.1) // files and directories
	dirs := newPicker(rng, len(m.dirs), 0)
	belowBase := func() uint32 { return uint32(1 + rng.Intn(len(m.dirs)-1)) }
	s.fillMixed(rng, []mix{
		{cStat, 70, func() uint32 { return uint32(nodes.next()) }},
		{cStatMissing, 8, pickFrom(rng, missing)},
		{cReadDir, 6, func() uint32 { return uint32(dirs.next()) }},
		{cTmpCycle, 8, pickPool(rng)},
		{cChmodDir, 5, belowBase},
		{cRenameDir, 3, belowBase},
	})
	return s
}

// coldTree is 9 600 files in 481 directories: about 2.5 times the 4 096
// dentries cold_scan lets the cache hold.
var coldTree = treeSpec{base: "/data", topDirs: 12, depth: 4, dirsPerLevel: 3, filesPerDir: 20, fileBytes: 64}

const coldCacheCapacity = 4096

// genColdScan: list a directory, lstat what it held, then 32 stats spread
// over the whole tree, so the working set never fits.
func genColdScan(rng *rand.Rand) *stream {
	m := genModel(coldTree, rng)
	s := newStream(m)
	children := make([][]uint32, len(m.dirs))
	for i := 1; i < len(m.dirs); i++ {
		children[m.dirs[i].parent] = append(children[m.dirs[i].parent], uint32(i))
	}
	for j, f := range m.files {
		children[f.dir] = append(children[f.dir], s.fileTarget(j))
	}
	s.ops = make([]op, 0, ringSize)
	for len(s.ops) < ringSize {
		d := rng.Intn(len(m.dirs))
		s.ops = append(s.ops, op{cReadDir, uint32(d)})
		for _, c := range children[d] {
			s.ops = append(s.ops, op{cLstat, c})
		}
		for k := 0; k < 32; k++ {
			s.ops = append(s.ops, op{cStat, s.fileTarget(rng.Intn(len(m.files)))})
		}
	}
	s.ops = s.ops[:ringSize]
	return s
}

// wireWorkers is the number of 9P connections, one goroutine each: the
// box has two cores and the load comes from this process.
const wireWorkers = 2

// genWireMix: warm_stat's tree through the 9P server. Each connection
// creates and removes its pool names in its own directory, which no
// readdir lists, so answers do not depend on how the two interleave.
func genWireMix(rng *rand.Rand) *stream {
	m := genModel(linuxTree, rng)
	tmpDirs := make([]int, wireWorkers)
	for w := range tmpDirs {
		tmpDirs[w] = m.addDir(0, fmt.Sprintf("tmp%d", w))
	}
	s := newStream(m)
	missing := s.missingTargets(rng, 256, false)
	// Worker w owns pool names k with k % wireWorkers == w.
	s.tmpPool(func(k int) int { return tmpDirs[k%wireWorkers] })
	files := newPicker(rng, len(m.files), 1.1)
	listed := len(m.dirs) - wireWorkers // the tmp dirs are last
	s.fillMixed(rng, []mix{
		{cStat, 80, func() uint32 { return s.fileTarget(files.next()) }},
		{cStatMissing, 8, pickFrom(rng, missing)},
		{cReadDir, 6, func() uint32 { return uint32(rng.Intn(listed)) }},
		{cTmpCycle, 6, pickPool(rng)},
	})
	return s
}

// shardTree is 40 apps of 8 packages, 8 files in each directory.
var shardTree = treeSpec{base: "/srv", topDirs: 40, depth: 2, dirsPerLevel: 8, filesPerDir: 8, fileBytes: 64}

// genShardMix: uniform stats through the router beside mutations whose
// invalidations must reach the other shards.
func genShardMix(rng *rand.Rand) *stream {
	m := genModel(shardTree, rng)
	s := newStream(m)
	var pkgs []uint32
	for i, d := range m.dirs {
		if d.depth == 2 {
			pkgs = append(pkgs, uint32(i))
		}
	}
	for k := 0; k < poolSize; k++ {
		p := fmt.Sprintf("%s/gen-%02d.go", m.dirs[pkgs[rng.Intn(len(pkgs))]].path, k)
		s.pool = append(s.pool, target{path: p, kind: wantPool, ref: k, size: int64(len(tmpData))})
	}
	// Stats cover files, directories and the toggled names, so a stale
	// positive or negative on any shard is a wrong answer.
	poolAt := uint32(len(s.targets))
	for _, t := range s.pool {
		s.add(t)
	}
	s.fillMixed(rng, []mix{
		{cStat, 94, func() uint32 {
			if rng.Intn(16) == 0 {
				return poolAt + uint32(rng.Intn(poolSize))
			}
			return uint32(rng.Intn(int(poolAt)))
		}},
		{cToggle, 3, pickPool(rng)},
		{cChmodDir, 2, pickFrom(rng, pkgs)},
		{cRenameDir, 1, pickFrom(rng, pkgs)},
	})
	return s
}
