package main

import (
	"errors"
	"fmt"

	"dircache"
	"dircache/internal/ninep"
)

// wire is a system behind the 9P server, as cmd/dcserve starts it, driven
// over loopback TCP by one client per worker.
type wire struct {
	s     *stream
	sys   *dircache.System
	srv   *ninep.Server
	cl    []*ninep.Client
	roots []*ninep.Fid
}

// wireUname is worker w's 9P uname: a decimal uid, which the server maps
// to that uid's credentials.
func wireUname(w int) string { return fmt.Sprint(1000 + w) }

func buildWire(s *stream, cfg dircache.Config) (*wire, error) {
	sys := dircache.New(cfg)
	root := sys.Start(dircache.RootCreds())
	defer root.Exit()
	if err := s.m.materialize(procBuilder{root}); err != nil {
		return nil, err
	}
	// Each worker creates pool names in its own directory, the last ones
	// of the model.
	for w := 0; w < wireWorkers; w++ {
		dir := s.m.dirs[len(s.m.dirs)-wireWorkers+w].path
		if err := root.Chown(dir, uint32(1000+w), uint32(1000+w)); err != nil {
			return nil, err
		}
	}
	srv, err := ninep.Serve(sys, "127.0.0.1:0", ninep.Config{})
	if err != nil {
		return nil, err
	}
	in := &wire{s: s, sys: sys, srv: srv}
	for w := 0; w < wireWorkers; w++ {
		c, err := ninep.Dial(srv.Addr().String())
		if err != nil {
			in.close()
			return nil, err
		}
		in.cl = append(in.cl, c)
		fid, err := c.Attach(wireUname(w), "")
		if err != nil {
			in.close()
			return nil, err
		}
		in.roots = append(in.roots, fid)
	}
	return in, nil
}

func (in *wire) workers() int                { return wireWorkers }
func (in *wire) systems() []*dircache.System { return []*dircache.System{in.sys} }

func (in *wire) counters() map[string]float64 {
	st := in.srv.Stats()
	rpcs := int64(0)
	for _, c := range in.cl {
		rpcs += c.RPCs()
	}
	return map[string]float64{
		"ninep.rpcs":        float64(rpcs),
		"ninep.bytes":       float64(st.BytesRead + st.BytesWritten),
		"ninep.errors_sent": float64(st.ErrorsSent),
		"pool.gets":         float64(st.PoolGets),
		"pool.reuses":       float64(st.PoolReuses),
	}
}

func (in *wire) verify() []string { return doctor(in.sys) }

func (in *wire) close() {
	for _, c := range in.cl {
		c.Close()
	}
	in.srv.Close()
}

func (in *wire) exec(w int, o op, tr *tracer) bool {
	root := tr.beginOp()
	defer tr.end(root)
	from := in.roots[w]
	walk := func(names []string) (*ninep.Fid, error) {
		sp := tr.begin("ninep.client.walk", root)
		f, err := from.Walk(names...)
		tr.end(sp)
		return f, err
	}
	clunk := func(f *ninep.Fid) bool {
		sp := tr.begin("ninep.client.clunk", root)
		err := f.Clunk()
		tr.end(sp)
		return err == nil
	}
	switch o.class {
	case cStat:
		t := &in.s.targets[o.idx]
		f, err := walk(t.names)
		if err != nil {
			return false
		}
		sp := tr.begin("ninep.client.stat", root)
		st, err := f.Stat()
		tr.end(sp)
		ok := err == nil && !st.Qid.IsDir() && int64(st.Length) == t.size
		return clunk(f) && ok
	case cStatMissing:
		_, err := walk(in.s.targets[o.idx].names)
		return errors.Is(err, dircache.ErrNotExist)
	case cReadDir:
		t := &in.s.targets[o.idx]
		f, err := walk(t.names)
		if err != nil {
			return false
		}
		sp := tr.begin("ninep.client.open", root)
		err = f.Open(ninep.ORead)
		tr.end(sp)
		ok := err == nil
		if ok {
			sp = tr.begin("ninep.client.read", root)
			ents, err := f.ReadDir()
			tr.end(sp)
			ok = err == nil && len(ents) == t.n
		}
		return clunk(f) && ok
	case cTmpCycle:
		// Worker w owns the pool names k with k % wireWorkers == w.
		k := int(o.idx)/wireWorkers*wireWorkers + w
		names := in.s.pool[k].names
		f, err := walk(names[:len(names)-1])
		if err != nil {
			return false
		}
		sp := tr.begin("ninep.client.create", root)
		err = f.Create(names[len(names)-1], filePerm, ninep.OWrite)
		tr.end(sp)
		if err != nil {
			clunk(f)
			return false
		}
		sp = tr.begin("ninep.client.write", root)
		n, err := f.Write(tmpData, 0)
		tr.end(sp)
		ok := err == nil && n == len(tmpData)
		sp = tr.begin("ninep.client.remove", root)
		err = f.Remove() // clunks the fid too
		tr.end(sp)
		return ok && err == nil
	}
	return false
}
