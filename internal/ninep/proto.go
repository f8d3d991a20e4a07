// Package ninep is a zero-dependency 9P2000 message codec, server, and
// client that put the directory cache on the wire. The server exports a
// dircache.System to many concurrent TCP connections; every Tattach binds
// a connection identity (uname → Creds) to a pooled Process, so each
// Twalk flows through the real DLHT/PCC hot path under that
// connection's credential. The client half exists for the in-repo smoke
// tests and the dcbench connstorm experiment.
//
// The codec implements plain 9P2000 (size[4] type[1] tag[2] body, strings
// and integers little-endian). Rerror carries the POSIX errno as a
// numeric prefix of ename ("13 permission denied"), which the client maps
// back onto fsapi.Errno so errors.Is works across the wire.
package ninep

import (
	"encoding/binary"
	"fmt"

	"dircache/internal/coherence"
	"dircache/internal/fsapi"
)

// 9P2000 message types.
const (
	MsgTversion uint8 = 100 + iota
	MsgRversion
	MsgTauth
	MsgRauth
	MsgTattach
	MsgRattach
	msgTerror // illegal on the wire
	MsgRerror
	MsgTflush
	MsgRflush
	MsgTwalk
	MsgRwalk
	MsgTopen
	MsgRopen
	MsgTcreate
	MsgRcreate
	MsgTread
	MsgRread
	MsgTwrite
	MsgRwrite
	MsgTclunk
	MsgRclunk
	MsgTremove
	MsgRremove
	MsgTstat
	MsgRstat
	MsgTwstat
	MsgRwstat
)

// 9P2000.dcshard vendor-extension message types: the coherence-log
// subscription and the remote shootdown, numbered above the 9P2000 range.
const (
	// MsgTjournal asks for coherence-log records after a cursor (carried
	// in Offset). MsgRjournal answers with the records (id[8] note[s]
	// path[s] each), the advanced cursor, and the fell-behind/truncated
	// flags in Mode.
	MsgTjournal uint8 = 130
	MsgRjournal uint8 = 131
	// MsgTshoot applies one coherence record — path[s] note[s], the
	// Record's Path and Note — on the server ("" or "/" = drop
	// everything); MsgRshoot answers with the dentry count discarded.
	MsgTshoot uint8 = 132
	MsgRshoot uint8 = 133
)

// Rjournal Mode flag bits.
const (
	// RjournalFellBehind: the cursor lagged past the log's retention; the
	// subscriber must fail closed (full invalidation) before resuming from
	// the returned cursor.
	RjournalFellBehind uint8 = 1 << 0
	// RjournalMore: the batch was truncated to fit msize; poll again
	// immediately from the returned cursor.
	RjournalMore uint8 = 1 << 1
)

var msgNames = map[uint8]string{
	MsgTversion: "Tversion", MsgRversion: "Rversion",
	MsgTauth: "Tauth", MsgRauth: "Rauth",
	MsgTattach: "Tattach", MsgRattach: "Rattach",
	MsgRerror: "Rerror",
	MsgTflush: "Tflush", MsgRflush: "Rflush",
	MsgTwalk: "Twalk", MsgRwalk: "Rwalk",
	MsgTopen: "Topen", MsgRopen: "Ropen",
	MsgTcreate: "Tcreate", MsgRcreate: "Rcreate",
	MsgTread: "Tread", MsgRread: "Rread",
	MsgTwrite: "Twrite", MsgRwrite: "Rwrite",
	MsgTclunk: "Tclunk", MsgRclunk: "Rclunk",
	MsgTremove: "Tremove", MsgRremove: "Rremove",
	MsgTstat: "Tstat", MsgRstat: "Rstat",
	MsgTwstat: "Twstat", MsgRwstat: "Rwstat",
	MsgTjournal: "Tjournal", MsgRjournal: "Rjournal",
	MsgTshoot: "Tshoot", MsgRshoot: "Rshoot",
}

// MsgName renders a message type for diagnostics.
func MsgName(t uint8) string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("msg%d", t)
}

// Protocol constants.
const (
	// Version is the protocol identifier negotiated by Tversion.
	Version = "9P2000"
	// VersionTrace is the dctrace vendor extension: 9P2000 plus optional
	// trailers — a trace-id[8] on Twalk, Topen and Tstat (span stitching);
	// an errno[4] on a partial Rwalk (9P2000.u's Rerror field), so a missing
	// name is one RPC; after Twalk's trace id (0 if untraced) nclunk[2]
	// fid[4]*nclunk, fids whose clunk has no effect clunked before the walk,
	// so a stat is two RPCs; and an eof[1] on an Rread that reached the end
	// of the fid's data, so a listing needs no empty read to end it.
	// Negotiated by exact match at Tversion; a stock 9P2000 peer on
	// either side falls back to the base protocol (the extra fields are sent
	// only once negotiated; a length-framed decoder skips a trailing field).
	VersionTrace = "9P2000.dctrace"
	// VersionShard is the dcshard vendor extension: everything in dctrace
	// plus the Tjournal/Rjournal coherence-log subscription and the
	// Tshoot/Rshoot remote shootdown — the wire legs of the sharded
	// metadata tier. Negotiated by exact match at Tversion; negotiating it
	// also turns on shard coherence on the serving System.
	VersionShard = "9P2000.dcshard"
	// VersionUnknown is the Rversion reply to an unsupported version.
	VersionUnknown = "unknown"
	// NoTag is the Tversion tag.
	NoTag uint16 = 0xFFFF
	// NoFid means "no auth fid" in Tattach.
	NoFid uint32 = 0xFFFFFFFF
	// MaxWalkNames bounds nwname in one Twalk (the 9P limit).
	MaxWalkNames = 16
	// IOHeaderSize is the per-message overhead reserved out of msize for
	// Rread/Twrite payload sizing.
	IOHeaderSize = 24
	// MinMsize is the smallest negotiable message size.
	MinMsize = 512
	// DefaultMsize is offered by clients and accepted by servers.
	DefaultMsize = 64 * 1024
	// MaxMsize caps negotiation (and bounds per-message allocation).
	MaxMsize = 1024 * 1024
)

// Qid type bits.
const (
	QTFile    uint8 = 0x00
	QTSymlink uint8 = 0x02 // 9P2000.u-style extension bit we use internally
	QTTmp     uint8 = 0x04
	QTAuth    uint8 = 0x08
	QTMount   uint8 = 0x10
	QTExcl    uint8 = 0x20
	QTAppend  uint8 = 0x40
	QTDir     uint8 = 0x80
)

// Open modes (Topen/Tcreate mode byte).
const (
	ORead   uint8 = 0
	OWrite  uint8 = 1
	ORdWr   uint8 = 2
	OExec   uint8 = 3
	OTrunc  uint8 = 0x10
	ORClose uint8 = 0x40
)

// Stat.Mode permission/type bits.
const (
	DMDir     uint32 = 0x80000000
	DMAppend  uint32 = 0x40000000
	DMExcl    uint32 = 0x20000000
	DMTmp     uint32 = 0x04000000
	DMSymlink uint32 = 0x02000000 // extension bit, matches QTSymlink<<24
)

// statNoChange values: a Twstat field holding its type's maximum means
// "leave unchanged".
const (
	noChange16 = ^uint16(0)
	noChange32 = ^uint32(0)
	noChange64 = ^uint64(0)
)

// Qid identifies one file system object: type bits, a version stamp, and
// a unique path number (the inode).
type Qid struct {
	Type    uint8
	Version uint32
	Path    uint64
}

// IsDir reports the QTDir bit.
func (q Qid) IsDir() bool { return q.Type&QTDir != 0 }

// Stat is the 9P2000 directory entry / stat record.
type Stat struct {
	Type   uint16
	Dev    uint32
	Qid    Qid
	Mode   uint32
	Atime  uint32
	Mtime  uint32
	Length uint64
	Name   string
	UID    string
	GID    string
	MUID   string
}

// EmptyStat returns a Twstat record with every field set to "don't
// change"; callers then set the fields they want to modify.
func EmptyStat() Stat {
	return Stat{
		Type: noChange16, Dev: noChange32,
		Qid:   Qid{Type: ^uint8(0), Version: noChange32, Path: noChange64},
		Mode:  noChange32,
		Atime: noChange32, Mtime: noChange32,
		Length: noChange64,
	}
}

// Fcall is one 9P message of any type — the union representation used by
// both codec directions (the name follows Plan 9's fcall(2)).
type Fcall struct {
	Type uint8
	Tag  uint16

	Msize   uint32 // Tversion, Rversion
	Version string // Tversion, Rversion
	Oldtag  uint16 // Tflush
	Ename   string // Rerror (with a numeric errno prefix; see Errno)
	Fid     uint32 // most T-messages
	Afid    uint32 // Tauth, Tattach
	Uname   string // Tauth, Tattach
	Aname   string // Tauth, Tattach
	Newfid  uint32 // Twalk
	Wname   []string
	Wqid    []Qid
	Errno   uint32 // partial Rwalk on the dc dialects: why it stopped (errno[4] trailer, when nonzero)
	Qid     Qid    // Rattach, Ropen, Rcreate, Rauth
	Mode    uint8  // Topen, Tcreate
	Nclunk  uint8  // Twalk (see Clunks), in Mode's padding: Fcall stays a 448-byte malloc
	EOF     bool   // Rread on the dc dialects: the read reached the end (eof[1] trailer, when set); padding too
	Perm    uint32 // Tcreate
	Name    string // Tcreate
	Iounit  uint32 // Ropen, Rcreate
	Offset  uint64 // Tread, Twrite
	Count   uint32 // Tread, Rread, Rwrite
	Data    []byte // Rread, Twrite
	Stat    Stat   // Rstat, Twstat

	// TraceID is the dctrace extension's end-to-end trace id, carried as
	// a trailing u64 on Twalk/Topen/Tstat when nonzero (and only after
	// VersionTrace was negotiated). Zero means untraced.
	TraceID uint64

	// Clunks[:Nclunk] is a dc Twalk's clunk list; an array, so no codec allocates.
	Clunks [MaxWalkNames]uint32

	// Journal carries Rjournal's record batch (dcshard extension). The
	// cursor rides in Offset (both directions), the flag bits in Mode,
	// the Tshoot record's path in Name and its note in Aname, and the
	// Rshoot drop count in Count.
	Journal []coherence.Record
}

// --- wire primitives -------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) str(s string) {
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) qid(q Qid) {
	e.u8(q.Type)
	e.u32(q.Version)
	e.u64(q.Path)
}

// mark reserves a size[2] slot and returns its offset; patch16 fills it
// with the byte count appended since.
func (e *encoder) mark() int {
	e.buf = append(e.buf, 0, 0)
	return len(e.buf)
}

func (e *encoder) patch16(mark int) {
	binary.LittleEndian.PutUint16(e.buf[mark-2:], uint16(len(e.buf)-mark))
}

// stat appends the record with its own leading size[2] (the inner framing
// shared by Rstat, Twstat, and directory reads).
func (e *encoder) stat(st Stat) {
	m := e.mark()
	e.u16(st.Type)
	e.u32(st.Dev)
	e.qid(st.Qid)
	e.u32(st.Mode)
	e.u32(st.Atime)
	e.u32(st.Mtime)
	e.u64(st.Length)
	e.str(st.Name)
	e.str(st.UID)
	e.str(st.GID)
	e.str(st.MUID)
	e.patch16(m)
}

// nstat appends stat[n]: Rstat and Twstat wrap the size-prefixed record
// in an outer byte count.
func (e *encoder) nstat(st Stat) {
	m := e.mark()
	e.stat(st)
	e.patch16(m)
}

var errTruncated = fmt.Errorf("ninep: truncated message")

type decoder struct{ buf []byte }

func (d *decoder) u8() (uint8, error) {
	if len(d.buf) < 1 {
		return 0, errTruncated
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if len(d.buf) < 2 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if len(d.buf) < 4 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if len(d.buf) < 8 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u16()
	if err != nil {
		return "", err
	}
	if len(d.buf) < int(n) {
		return "", errTruncated
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

func (d *decoder) qid() (Qid, error) {
	var q Qid
	var err error
	if q.Type, err = d.u8(); err != nil {
		return q, err
	}
	if q.Version, err = d.u32(); err != nil {
		return q, err
	}
	q.Path, err = d.u64()
	return q, err
}

func (d *decoder) stat() (Stat, error) {
	n, err := d.u16()
	if err != nil {
		return Stat{}, err
	}
	if len(d.buf) < int(n) {
		return Stat{}, errTruncated
	}
	inner := decoder{buf: d.buf[:n]}
	d.buf = d.buf[n:]
	var st Stat
	if st.Type, err = inner.u16(); err != nil {
		return st, err
	}
	if st.Dev, err = inner.u32(); err != nil {
		return st, err
	}
	if st.Qid, err = inner.qid(); err != nil {
		return st, err
	}
	if st.Mode, err = inner.u32(); err != nil {
		return st, err
	}
	if st.Atime, err = inner.u32(); err != nil {
		return st, err
	}
	if st.Mtime, err = inner.u32(); err != nil {
		return st, err
	}
	if st.Length, err = inner.u64(); err != nil {
		return st, err
	}
	if st.Name, err = inner.str(); err != nil {
		return st, err
	}
	if st.UID, err = inner.str(); err != nil {
		return st, err
	}
	if st.GID, err = inner.str(); err != nil {
		return st, err
	}
	st.MUID, err = inner.str()
	return st, err
}

// --- message marshal/unmarshal ---------------------------------------

// Marshal renders f as one wire message, including the size[4] prefix.
func Marshal(f *Fcall) ([]byte, error) {
	return AppendMarshal(make([]byte, 0, 64), f)
}

// AppendMarshal appends f's wire message (size[4] prefix included) to dst
// and returns the extended slice, so a caller that owns a buffer encodes
// without allocating. On error dst comes back at its original length.
func AppendMarshal(dst []byte, f *Fcall) ([]byte, error) {
	start := len(dst)
	e := encoder{buf: append(dst, 0, 0, 0, 0)} // size backpatched below
	e.u8(f.Type)
	e.u16(f.Tag)
	switch f.Type {
	case MsgTversion, MsgRversion:
		e.u32(f.Msize)
		e.str(f.Version)
	case MsgTauth:
		e.u32(f.Afid)
		e.str(f.Uname)
		e.str(f.Aname)
	case MsgRauth:
		e.qid(f.Qid)
	case MsgTattach:
		e.u32(f.Fid)
		e.u32(f.Afid)
		e.str(f.Uname)
		e.str(f.Aname)
	case MsgRattach:
		e.qid(f.Qid)
	case MsgRerror:
		e.str(f.Ename)
	case MsgTflush:
		e.u16(f.Oldtag)
	case MsgRflush:
	case MsgTwalk:
		e.u32(f.Fid)
		e.u32(f.Newfid)
		if len(f.Wname) > MaxWalkNames || f.Nclunk > MaxWalkNames {
			return dst, fmt.Errorf("ninep: Twalk with %d names, %d clunks (max %d)", len(f.Wname), f.Nclunk, MaxWalkNames)
		}
		e.u16(uint16(len(f.Wname)))
		for _, n := range f.Wname {
			e.str(n)
		}
		if f.TraceID != 0 || f.Nclunk > 0 {
			e.u64(f.TraceID) // dctrace trailing trace-id[8]
		}
		if f.Nclunk > 0 {
			e.u16(uint16(f.Nclunk)) // dc dialects' clunk list
			for _, fid := range f.Clunks[:f.Nclunk] {
				e.u32(fid)
			}
		}
	case MsgRwalk:
		e.u16(uint16(len(f.Wqid)))
		for _, q := range f.Wqid {
			e.qid(q)
		}
		if f.Errno != 0 {
			e.u32(f.Errno) // dc dialects' trailing errno[4]
		}
	case MsgTopen:
		e.u32(f.Fid)
		e.u8(f.Mode)
		if f.TraceID != 0 {
			e.u64(f.TraceID) // dctrace trailing trace-id[8]
		}
	case MsgRopen, MsgRcreate:
		e.qid(f.Qid)
		e.u32(f.Iounit)
	case MsgTcreate:
		e.u32(f.Fid)
		e.str(f.Name)
		e.u32(f.Perm)
		e.u8(f.Mode)
	case MsgTread:
		e.u32(f.Fid)
		e.u64(f.Offset)
		e.u32(f.Count)
	case MsgRread:
		e.u32(uint32(len(f.Data)))
		e.buf = append(e.buf, f.Data...)
		if f.EOF {
			e.u8(1) // dc dialects' trailing eof[1]
		}
	case MsgTwrite:
		e.u32(f.Fid)
		e.u64(f.Offset)
		e.u32(uint32(len(f.Data)))
		e.buf = append(e.buf, f.Data...)
	case MsgRwrite:
		e.u32(f.Count)
	case MsgTclunk, MsgTremove:
		e.u32(f.Fid)
	case MsgTstat:
		e.u32(f.Fid)
		if f.TraceID != 0 {
			e.u64(f.TraceID) // dctrace trailing trace-id[8]
		}
	case MsgRclunk, MsgRremove, MsgRwstat:
	case MsgRstat:
		e.nstat(f.Stat)
	case MsgTwstat:
		e.u32(f.Fid)
		e.nstat(f.Stat)
	case MsgTjournal:
		e.u64(f.Offset) // cursor
		e.u32(f.Count)  // max events (0 = server default)
	case MsgRjournal:
		e.u64(f.Offset) // next cursor
		e.u8(f.Mode)    // RjournalFellBehind | RjournalMore
		e.u16(uint16(len(f.Journal)))
		for _, rec := range f.Journal {
			e.u64(rec.ID)
			e.str(rec.Note)
			e.str(rec.Path)
		}
	case MsgTshoot:
		e.str(f.Name)
		e.str(f.Aname)
	case MsgRshoot:
		e.u32(f.Count)
	default:
		return dst, fmt.Errorf("ninep: marshal of unknown message type %d", f.Type)
	}
	binary.LittleEndian.PutUint32(e.buf[start:], uint32(len(e.buf)-start))
	return e.buf, nil
}

// Unmarshal parses one wire message (without the size[4] prefix, which
// the frame reader strips).
func Unmarshal(buf []byte) (*Fcall, error) {
	f := new(Fcall)
	if err := f.unmarshal(buf); err != nil {
		return nil, err
	}
	return f, nil
}

// unmarshal overwrites f with the message in buf. Every string and Data
// is copied out, so buf may be reused as soon as it returns.
func (f *Fcall) unmarshal(buf []byte) error {
	*f = Fcall{}
	d := decoder{buf: buf}
	var err error
	if f.Type, err = d.u8(); err != nil {
		return err
	}
	if f.Tag, err = d.u16(); err != nil {
		return err
	}
	switch f.Type {
	case MsgTversion, MsgRversion:
		if f.Msize, err = d.u32(); err != nil {
			return err
		}
		f.Version, err = d.str()
	case MsgTauth:
		if f.Afid, err = d.u32(); err != nil {
			return err
		}
		if f.Uname, err = d.str(); err != nil {
			return err
		}
		f.Aname, err = d.str()
	case MsgRauth:
		f.Qid, err = d.qid()
	case MsgTattach:
		if f.Fid, err = d.u32(); err != nil {
			return err
		}
		if f.Afid, err = d.u32(); err != nil {
			return err
		}
		if f.Uname, err = d.str(); err != nil {
			return err
		}
		f.Aname, err = d.str()
	case MsgRattach:
		f.Qid, err = d.qid()
	case MsgRerror:
		f.Ename, err = d.str()
	case MsgTflush:
		f.Oldtag, err = d.u16()
	case MsgRflush:
	case MsgTwalk:
		if f.Fid, err = d.u32(); err != nil {
			return err
		}
		if f.Newfid, err = d.u32(); err != nil {
			return err
		}
		var n uint16
		if n, err = d.u16(); err != nil {
			return err
		}
		if n > MaxWalkNames {
			return fmt.Errorf("ninep: Twalk with %d names (max %d)", n, MaxWalkNames)
		}
		// The names are decoded as substrings of ONE copy of the wire's
		// len[2]-prefixed run: one allocation however deep the walk.
		run := d.buf
		for i := 0; i < int(n); i++ {
			var l uint16
			if l, err = d.u16(); err != nil {
				return err
			}
			if len(d.buf) < int(l) {
				return errTruncated
			}
			d.buf = d.buf[l:]
		}
		all := string(run[:len(run)-len(d.buf)])
		f.Wname = make([]string, n)
		for i, off := 0, 0; i < int(n); i++ {
			end := off + 2 + int(binary.LittleEndian.Uint16(run[off:]))
			f.Wname[i] = all[off+2 : end]
			off = end
		}
		if len(d.buf) < 8 {
			break
		}
		f.TraceID, _ = d.u64() // dctrace trace-id[8]; then the clunk list, whole or an error
		if len(d.buf) > 0 {
			if n, err = d.u16(); err == nil && n > MaxWalkNames {
				err = fmt.Errorf("ninep: Twalk with %d clunks (max %d)", n, MaxWalkNames)
			}
			for ; err == nil && int(f.Nclunk) < int(n); f.Nclunk++ {
				f.Clunks[f.Nclunk], err = d.u32()
			}
		}
	case MsgRwalk:
		var n uint16
		if n, err = d.u16(); err != nil {
			return err
		}
		if n > MaxWalkNames {
			return fmt.Errorf("ninep: Rwalk with %d qids (max %d)", n, MaxWalkNames)
		}
		f.Wqid = make([]Qid, n)
		for i := range f.Wqid {
			if f.Wqid[i], err = d.qid(); err != nil {
				return err
			}
		}
		if len(d.buf) > 0 {
			f.Errno, err = d.u32() // dc dialects' trailing errno[4]
		}
	case MsgTopen:
		if f.Fid, err = d.u32(); err != nil {
			return err
		}
		if f.Mode, err = d.u8(); err != nil {
			return err
		}
		if len(d.buf) >= 8 {
			f.TraceID, _ = d.u64() // dctrace trailing trace-id[8]
		}
	case MsgRopen, MsgRcreate:
		if f.Qid, err = d.qid(); err != nil {
			return err
		}
		f.Iounit, err = d.u32()
	case MsgTcreate:
		if f.Fid, err = d.u32(); err != nil {
			return err
		}
		if f.Name, err = d.str(); err != nil {
			return err
		}
		if f.Perm, err = d.u32(); err != nil {
			return err
		}
		f.Mode, err = d.u8()
	case MsgTread:
		if f.Fid, err = d.u32(); err != nil {
			return err
		}
		if f.Offset, err = d.u64(); err != nil {
			return err
		}
		f.Count, err = d.u32()
	case MsgRread:
		var n uint32
		if n, err = d.u32(); err != nil {
			return err
		}
		if len(d.buf) < int(n) {
			return errTruncated
		}
		f.Data = append([]byte(nil), d.buf[:n]...)
		switch trailer := d.buf[n:]; len(trailer) {
		case 0:
		case 1:
			f.EOF = trailer[0] != 0 // dc dialects' trailing eof[1]
		default:
			err = fmt.Errorf("ninep: Rread with %d bytes after its data", len(trailer))
		}
	case MsgTwrite:
		if f.Fid, err = d.u32(); err != nil {
			return err
		}
		if f.Offset, err = d.u64(); err != nil {
			return err
		}
		var n uint32
		if n, err = d.u32(); err != nil {
			return err
		}
		if len(d.buf) < int(n) {
			return errTruncated
		}
		f.Data = append([]byte(nil), d.buf[:n]...)
	case MsgRwrite:
		f.Count, err = d.u32()
	case MsgTclunk, MsgTremove:
		f.Fid, err = d.u32()
	case MsgTstat:
		if f.Fid, err = d.u32(); err != nil {
			return err
		}
		if len(d.buf) >= 8 {
			f.TraceID, _ = d.u64() // dctrace trailing trace-id[8]
		}
	case MsgRclunk, MsgRremove, MsgRwstat:
	case MsgRstat:
		if _, err = d.u16(); err != nil { // outer stat[n] count
			return err
		}
		f.Stat, err = d.stat()
	case MsgTwstat:
		if f.Fid, err = d.u32(); err != nil {
			return err
		}
		if _, err = d.u16(); err != nil {
			return err
		}
		f.Stat, err = d.stat()
	case MsgTjournal:
		if f.Offset, err = d.u64(); err != nil {
			return err
		}
		f.Count, err = d.u32()
	case MsgRjournal:
		if f.Offset, err = d.u64(); err != nil {
			return err
		}
		if f.Mode, err = d.u8(); err != nil {
			return err
		}
		var n uint16
		if n, err = d.u16(); err != nil {
			return err
		}
		f.Journal = make([]coherence.Record, n)
		for i := range f.Journal {
			if f.Journal[i].ID, err = d.u64(); err != nil {
				return err
			}
			if f.Journal[i].Note, err = d.str(); err != nil {
				return err
			}
			if f.Journal[i].Path, err = d.str(); err != nil {
				return err
			}
		}
	case MsgTshoot:
		if f.Name, err = d.str(); err != nil {
			return err
		}
		f.Aname, err = d.str()
	case MsgRshoot:
		f.Count, err = d.u32()
	default:
		return fmt.Errorf("ninep: unknown message type %d", f.Type)
	}
	return err
}

// MarshalStat renders one size-prefixed stat record — the unit of
// directory-read payloads.
func MarshalStat(st Stat) []byte {
	var e encoder
	e.stat(st)
	return e.buf
}

// UnmarshalStats parses a directory-read payload: a concatenation of
// size-prefixed stat records.
func UnmarshalStats(buf []byte) ([]Stat, error) {
	d := decoder{buf: buf}
	var out []Stat
	for len(d.buf) > 0 {
		st, err := d.stat()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// --- error mapping ---------------------------------------------------

// ErrnoEname renders an error as the Rerror ename carrying its POSIX
// errno as a numeric prefix: "13 permission denied".
func ErrnoEname(err error) string {
	e := fsapi.ToErrno(err)
	return fmt.Sprintf("%d %s", int(e), e.Error())
}

// EnameErrno parses an ename produced by ErrnoEname back into the
// fsapi.Errno identity (EIO when the prefix is absent or malformed), so
// client-side errors.Is matches the sentinel the server saw.
func EnameErrno(ename string) error {
	n := 0
	i := 0
	for i < len(ename) && ename[i] >= '0' && ename[i] <= '9' {
		n = n*10 + int(ename[i]-'0')
		i++
	}
	if i == 0 || i >= len(ename) || ename[i] != ' ' {
		return fsapi.EIO
	}
	return fsapi.Errno(n)
}
