package main

import (
	"errors"

	"dircache"
)

// live is the part of the model that ops change: directory modes and
// which pool names exist. It belongs to an instance, so every set-up
// starts from the generated tree.
type live struct {
	dirPerm []uint32
	pool    []bool
}

func newLive(s *stream) *live {
	lv := &live{dirPerm: make([]uint32, len(s.m.dirs)), pool: make([]bool, len(s.pool))}
	for i := range lv.dirPerm {
		lv.dirPerm[i] = dirPerm
	}
	return lv
}

// toggledPerm flips a directory between its two modes in the model and
// returns the new one.
func (lv *live) toggledPerm(dir int) uint32 {
	if lv.dirPerm[dir] == dirPerm {
		lv.dirPerm[dir] = dirPermAlt
	} else {
		lv.dirPerm[dir] = dirPerm
	}
	return lv.dirPerm[dir]
}

// matches compares a stat answer with what the model says of t.
func (lv *live) matches(t *target, fi dircache.FileInfo, err error) bool {
	kind := t.kind
	if kind == wantPool {
		kind = wantMissing
		if lv.pool[t.ref] {
			kind = wantFile
		}
	}
	switch kind {
	case wantMissing:
		return errors.Is(err, dircache.ErrNotExist)
	case wantFile:
		return err == nil && fi.Type == dircache.TypeRegular && fi.Size == t.size
	default:
		return err == nil && fi.Type == dircache.TypeDirectory && fi.Perm&0o777 == lv.dirPerm[t.ref]
	}
}

// procBuilder materializes a model through one Process.
type procBuilder struct{ *dircache.Process }

func (procBuilder) levelDone() error { return nil }

// inproc is a system driven through the public Process API by one worker.
type inproc struct {
	s   *stream
	lv  *live
	sys *dircache.System
	p   *dircache.Process
}

// buildInproc builds the tree as root, then hands the worker a process
// with creds and cwd.
func buildInproc(s *stream, cfg dircache.Config, creds dircache.Creds, cwd string) (*inproc, error) {
	sys := dircache.New(cfg)
	root := sys.Start(dircache.RootCreds())
	defer root.Exit()
	if err := s.m.materialize(procBuilder{root}); err != nil {
		return nil, err
	}
	p := sys.Start(creds)
	if err := p.Chdir(cwd); err != nil {
		return nil, err
	}
	return &inproc{s: s, lv: newLive(s), sys: sys, p: p}, nil
}

func (in *inproc) workers() int                 { return 1 }
func (in *inproc) systems() []*dircache.System  { return []*dircache.System{in.sys} }
func (in *inproc) counters() map[string]float64 { return nil }
func (in *inproc) close()                       { in.p.Exit() }

func (in *inproc) verify() []string { return doctor(in.sys) }

// doctor runs the system's invariant audit and returns its findings.
func doctor(sys *dircache.System) []string {
	var out []string
	for _, f := range sys.Doctor().Findings {
		out = append(out, f.String())
	}
	return out
}

func (in *inproc) exec(_ int, o op, tr *tracer) bool {
	root := tr.beginOp()
	defer tr.end(root)
	p := in.p
	switch o.class {
	case cStat, cStatRel, cStatMissing:
		t := &in.s.targets[o.idx]
		sp := tr.begin("api.stat", root)
		fi, err := p.Stat(t.path)
		tr.end(sp)
		return in.lv.matches(t, fi, err)
	case cLstat, cLstatAlias:
		t := &in.s.targets[o.idx]
		sp := tr.begin("api.lstat", root)
		fi, err := p.Lstat(t.path)
		tr.end(sp)
		return in.lv.matches(t, fi, err)
	case cReadDir:
		t := &in.s.targets[o.idx]
		sp := tr.begin("api.readdir", root)
		ents, err := p.ReadDir(t.path)
		tr.end(sp)
		return err == nil && len(ents) == t.n
	case cTmpCycle:
		final, tmp := in.s.pool[o.idx].path, in.s.poolNew[o.idx]
		sp := tr.begin("api.writefile", root)
		err := p.WriteFile(tmp, tmpData, filePerm)
		tr.end(sp)
		if err != nil {
			return false
		}
		sp = tr.begin("api.rename", root)
		err = p.Rename(tmp, final)
		tr.end(sp)
		if err != nil {
			return false
		}
		sp = tr.begin("api.unlink", root)
		err = p.Unlink(final)
		tr.end(sp)
		return err == nil
	case cChmodDir:
		t := &in.s.targets[o.idx]
		sp := tr.begin("api.chmod", root)
		err := p.Chmod(t.path, in.lv.toggledPerm(t.ref))
		tr.end(sp)
		return err == nil
	case cRenameDir:
		t := &in.s.targets[o.idx]
		sp := tr.begin("api.rename", root)
		err := p.Rename(t.path, t.path+".mv")
		tr.end(sp)
		if err != nil {
			return false
		}
		sp = tr.begin("api.rename", root)
		err = p.Rename(t.path+".mv", t.path)
		tr.end(sp)
		return err == nil
	}
	return false
}

var tmpData = []byte("package tmp\n")
