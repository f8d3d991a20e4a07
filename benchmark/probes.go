package main

import (
	"fmt"
	"io"
	"net"
	"time"

	"dircache"
	"dircache/internal/fsapi"
	"dircache/internal/memfs"
	"dircache/internal/ninep"
	"dircache/internal/shard"
	"dircache/internal/sig"
	"dircache/internal/slab"
)

// The probes time direct calls into one layer's public functions, outside
// any workload, so a layer's own cost can be told from the cost of what
// surrounds it. Each returns a median over rounds of many calls.

const probeRounds = 9

// perCall runs fn (which makes n calls) probeRounds times and returns the
// median nanoseconds per call.
func perCall(n int, fn func()) float64 {
	v := make([]float64, probeRounds)
	for r := range v {
		t0 := time.Now()
		fn()
		v[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(v)
}

// sink keeps probe results alive so the calls are not optimised away.
var sink uint64

// probeHost reads the host reference the untraced run scales its times
// by: ns per load, the median of five readings. It runs no code of the
// repository, so when it moves between two runs the host moved, not the
// program, and the traced pass's times moved with it.
func probeHost() float64 {
	ref := newHostRef(1)
	v := make([]float64, 5)
	for i := range v {
		v[i] = ref.read()
	}
	return median(v)
}

// probeSig times Key.HashString over the stream's paths: ns per byte.
func probeSig(s *stream, seed uint64) float64 {
	key := sig.NewKey(seed)
	bytes := 0
	for _, t := range s.targets {
		bytes += len(t.path)
	}
	return perCall(bytes, func() {
		for i := range s.targets {
			idx, _ := key.HashString(s.targets[i].path)
			sink += uint64(idx)
		}
	})
}

// probeSlab times a fresh arena: ns per Alloc, and ns per slot for
// Retire followed by the Reclaim that frees it.
func probeSlab() (allocNS, retireReclaimNS float64) {
	const n = 1 << 14
	gate := slab.NewGate()
	a := slab.New[[64]byte](gate, slab.Options{})
	refs := make([]slab.Ref, n)
	var alloc, retire []float64
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := range refs {
			refs[i], _ = a.Alloc()
		}
		alloc = append(alloc, float64(time.Since(t0))/n)
		t0 = time.Now()
		for _, ref := range refs {
			a.Retire(ref)
		}
		// Two epochs must pass before a retired slot is free; every
		// Reclaim nudges the epoch on.
		for freed := 0; freed < n; {
			freed += a.Reclaim(n)
		}
		retire = append(retire, float64(time.Since(t0))/n)
	}
	return median(alloc), median(retire)
}

// probeMemfs times Lookup and ReadDir on a memfs directory of 20 files,
// called through the fsapi interface as the VFS calls them.
func probeMemfs() (lookupNS, readdirNS float64, err error) {
	var fs fsapi.FileSystem = memfs.New(memfs.Options{})
	root := fs.Root().ID
	dir, err := fs.Mkdir(root, "d", fsapi.MkMode(fsapi.TypeDirectory, 0o755), 0, 0)
	if err != nil {
		return 0, 0, err
	}
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("f%02d.c", i)
		if _, err := fs.Create(dir.ID, names[i], fsapi.MkMode(fsapi.TypeRegular, 0o644), 0, 0); err != nil {
			return 0, 0, err
		}
	}
	const n = 20000
	lookupNS = perCall(n, func() {
		for i := 0; i < n; i++ {
			ni, _ := fs.Lookup(dir.ID, names[i%len(names)])
			sink += uint64(ni.ID)
		}
	})
	readdirNS = perCall(n/10, func() {
		for i := 0; i < n/10; i++ {
			ents, _, _, _ := fs.ReadDir(dir.ID, 0, 64)
			sink += uint64(len(ents))
		}
	})
	return lookupNS, readdirNS, nil
}

// probePool times one Get and Put on a process pool of sys.
func probePool(sys *dircache.System) float64 {
	pool := sys.NewProcessPool(0)
	id := dircache.NewIdentity(dircache.UserCreds(1000, 1000))
	const n = 20000
	return perCall(n, func() {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get(id))
		}
	})
}

// statMessages are the six messages one warm wire stat sends and
// receives, for a path of the stream.
func statMessages(t *target) []*ninep.Fcall {
	qids := make([]ninep.Qid, len(t.names))
	st := ninep.Stat{Name: t.names[len(t.names)-1], UID: "1000", GID: "1000", MUID: "1000", Length: uint64(t.size), Mode: filePerm}
	return []*ninep.Fcall{
		{Type: ninep.MsgTwalk, Tag: 1, Fid: 1, Newfid: 2, Wname: t.names},
		{Type: ninep.MsgRwalk, Tag: 1, Wqid: qids},
		{Type: ninep.MsgTstat, Tag: 1, Fid: 2},
		{Type: ninep.MsgRstat, Tag: 1, Stat: st},
		{Type: ninep.MsgTclunk, Tag: 1, Fid: 2},
		{Type: ninep.MsgRclunk, Tag: 1},
	}
}

// probeCodec times Marshal and Unmarshal of the six messages: ns for the
// whole set, each direction, and the mean frame size in bytes.
func probeCodec(t *target) (encodeNS, decodeNS float64, frameBytes int, err error) {
	msgs := statMessages(t)
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		if frames[i], err = ninep.Marshal(m); err != nil {
			return 0, 0, 0, err
		}
		if _, err = ninep.Unmarshal(frames[i][4:]); err != nil {
			return 0, 0, 0, err
		}
		frameBytes += len(frames[i])
	}
	const n = 5000
	encodeNS = perCall(n, func() {
		for i := 0; i < n; i++ {
			for _, m := range msgs {
				b, _ := ninep.Marshal(m)
				sink += uint64(len(b))
			}
		}
	})
	decodeNS = perCall(n, func() {
		for i := 0; i < n; i++ {
			for _, f := range frames {
				m, _ := ninep.Unmarshal(f[4:])
				sink += uint64(m.Type)
			}
		}
	})
	return encodeNS, decodeNS, frameBytes / len(msgs), nil
}

// probeLoopback sends a frame of size bytes to a TCP echo on loopback and
// waits for it to come back: the median round trip in microseconds.
func probeLoopback(size int) (float64, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		lis.Close()
		<-echoed
		return 0, err
	}
	buf := make([]byte, size)
	rtts := make([]float64, 0, 4000)
	for i := 0; i < cap(rtts) && err == nil; i++ {
		t0 := time.Now()
		if _, err = c.Write(buf); err == nil {
			_, err = io.ReadFull(c, buf)
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	c.Close()
	lis.Close()
	<-echoed
	return median(rtts), err
}

// probeRoute times Ring.Owner over the stream's paths.
func probeRoute(ring *shard.Ring, s *stream) float64 {
	return perCall(len(s.targets), func() {
		for i := range s.targets {
			sink += uint64(ring.Owner(s.targets[i].path))
		}
	})
}

// probeRouterStat times a warm stat of every file through the router and
// then straight on the shard that owns it.
func probeRouterStat(g *shard.Group, s *stream) (routerNS, localNS float64) {
	files := s.fileTargets()
	owners := make([]*shard.Local, len(files))
	for i := range files {
		owners[i] = g.Locals[g.Router.Owner(files[i].path)]
	}
	routerNS = perCall(len(files), func() {
		for i := range files {
			fi, _ := g.Router.Stat(files[i].path)
			sink += fi.Inode
		}
	})
	localNS = perCall(len(files), func() {
		for i := range files {
			fi, _ := owners[i].Stat(files[i].path)
			sink += fi.Inode
		}
	})
	return routerNS, localNS
}

// probeEventsSince times reading a shard's quiescent journal from its
// head: what every pump pays per shard when there is nothing to do.
func probeEventsSince(l *shard.Local) float64 {
	_, head, _ := l.EventsSince(0)
	const n = 2000
	return perCall(n, func() {
		for i := 0; i < n; i++ {
			_, next, _ := l.EventsSince(head)
			sink += next
		}
	}) / 1e3
}

// probeShrink times ShrinkCache(1024): ns per dentry evicted.
func probeShrink(sys *dircache.System) float64 {
	t0 := time.Now()
	n := sys.ShrinkCache(1024)
	if n == 0 {
		return 0
	}
	return float64(time.Since(t0)) / float64(n)
}

// phaseMedians collects the per-lookup phase times a PhaseTrace system
// reports (the paper's Fig 3) and returns each phase's median in ns.
type phaseMedians struct {
	init, scanHash, hashLookup, permCheck, finalize []float64
}

func (pm *phaseMedians) attach(sys *dircache.System) {
	sys.SetPhaseSink(func(p dircache.PhaseTimes) {
		if len(pm.init) == 1<<20 {
			return
		}
		pm.init = append(pm.init, float64(p.Init))
		pm.scanHash = append(pm.scanHash, float64(p.ScanHash))
		pm.hashLookup = append(pm.hashLookup, float64(p.HashLookup))
		pm.permCheck = append(pm.permCheck, float64(p.PermCheck))
		pm.finalize = append(pm.finalize, float64(p.Finalize))
	})
}
