package ninep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"dircache/internal/fsapi"
)

// ReadMsg is the reference framing the tests hold frameReader to, and
// what they read raw connections with (it never reads past the frame): one
// read for size[4], one for the body, a fresh body per message.
func ReadMsg(r io.Reader, maxSize uint32) ([]byte, error) {
	var szb [4]byte
	if _, err := io.ReadFull(r, szb[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(szb[:])
	if err := checkFrameSize(size, maxSize); err != nil {
		return nil, err
	}
	body := make([]byte, size-4)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended inside a frame
		}
		return nil, err
	}
	return body, nil
}

// roundTrip marshals f and unmarshals it back.
func roundTrip(t *testing.T, f *Fcall) *Fcall {
	t.Helper()
	buf, err := Marshal(f)
	if err != nil {
		t.Fatalf("Marshal(%s): %v", MsgName(f.Type), err)
	}
	// AppendMarshal must produce the same frame behind whatever dst
	// already holds, whether dst has no room, too little, or plenty.
	dirty := bytes.Repeat([]byte{0xA5}, 9)
	for _, dst := range [][]byte{
		nil,
		append(make([]byte, 0, len(dirty)+3), dirty...),
		append(make([]byte, 0, len(dirty)+4*len(buf)), dirty...),
	} {
		out, err := AppendMarshal(dst, f)
		if err != nil {
			t.Fatalf("AppendMarshal(%s): %v", MsgName(f.Type), err)
		}
		if !bytes.Equal(out[:len(dst)], dst) || !bytes.Equal(out[len(dst):], buf) {
			t.Fatalf("AppendMarshal(%s) into a dst of len %d cap %d: frame differs from Marshal's", MsgName(f.Type), len(dst), cap(dst))
		}
		// A dirty tail beyond len must not leak into the frame either.
		if spare := out[len(out):cap(out)]; len(spare) > 0 {
			for i := range spare {
				spare[i] = 0xFF
			}
			again, _ := AppendMarshal(out[:len(dst)], f)
			if !bytes.Equal(again[len(dst):], buf) {
				t.Fatalf("AppendMarshal(%s) over a dirty buffer: frame differs from Marshal's", MsgName(f.Type))
			}
		}
	}
	body, err := ReadMsg(bytes.NewReader(buf), MaxMsize)
	if err != nil {
		t.Fatalf("ReadMsg(%s): %v", MsgName(f.Type), err)
	}
	got, err := Unmarshal(body)
	if err != nil {
		t.Fatalf("Unmarshal(%s): %v", MsgName(f.Type), err)
	}
	return got
}

func TestCodecRoundTrips(t *testing.T) {
	qid := Qid{Type: QTDir, Version: 7, Path: 0xdeadbeefcafe}
	st := Stat{
		Qid: qid, Mode: DMDir | 0o755, Atime: 100, Mtime: 200,
		Length: 4096, Name: "src", UID: "1000", GID: "1000", MUID: "1000",
	}
	cases := []*Fcall{
		{Type: MsgTversion, Tag: NoTag, Msize: 8192, Version: Version},
		{Type: MsgRversion, Tag: NoTag, Msize: 8192, Version: Version},
		{Type: MsgTattach, Tag: 1, Fid: 0, Afid: NoFid, Uname: "1000", Aname: "/srv"},
		{Type: MsgRattach, Tag: 1, Qid: qid},
		{Type: MsgRerror, Tag: 2, Ename: "13 permission denied"},
		{Type: MsgTflush, Tag: 3, Oldtag: 2},
		{Type: MsgRflush, Tag: 3},
		{Type: MsgTwalk, Tag: 4, Fid: 1, Newfid: 2, Wname: []string{"a", "b", "c"}},
		{Type: MsgTwalk, Tag: 4, Fid: 1, Newfid: 2},                                                    // clone: zero names
		{Type: MsgTwalk, Tag: 4, Fid: 1, Newfid: 2, Wname: []string{"a"}, TraceID: 0x1122334455667788}, // dc
		{Type: MsgRwalk, Tag: 4, Wqid: []Qid{qid, {Type: QTFile, Version: 1, Path: 42}}},
		{Type: MsgRwalk, Tag: 4},                                                 // clone response: zero qids
		{Type: MsgRwalk, Tag: 4, Wqid: []Qid{qid}, Errno: uint32(fsapi.ENOTDIR)}, // dc: a partial walk's errno
		// the dc dialect's clunk lists, behind trace id 0 and a real one
		{Type: MsgTwalk, Tag: 4, Fid: 1, Newfid: 2, Wname: []string{"a"}, Clunks: [MaxWalkNames]uint32{5}, Nclunk: 1},
		{Type: MsgTwalk, Tag: 4, Fid: 1, Newfid: 2, TraceID: 3, Clunks: [MaxWalkNames]uint32{9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}, Nclunk: MaxWalkNames},
		{Type: MsgTopen, Tag: 5, Fid: 2, Mode: ORdWr | OTrunc},
		{Type: MsgTopen, Tag: 5, Fid: 2, Mode: ORead, TraceID: 99}, // dc
		{Type: MsgRopen, Tag: 5, Qid: qid, Iounit: 8168},
		{Type: MsgTcreate, Tag: 6, Fid: 2, Name: "f.txt", Perm: 0o644, Mode: OWrite},
		{Type: MsgRcreate, Tag: 6, Qid: qid, Iounit: 8168},
		{Type: MsgTread, Tag: 7, Fid: 2, Offset: 1 << 40, Count: 8192},
		{Type: MsgRread, Tag: 7, Data: []byte("hello, 9P")},
		{Type: MsgRread, Tag: 7, Data: []byte{}},                     // EOF
		{Type: MsgRread, Tag: 7, Data: []byte("the end"), EOF: true}, // dc: the read reached the end
		{Type: MsgRread, Tag: 7, EOF: true},                          // dc: nothing was left
		{Type: MsgTwrite, Tag: 8, Fid: 2, Offset: 0, Data: []byte{0, 1, 2, 255}},
		{Type: MsgRwrite, Tag: 8, Count: 4},
		{Type: MsgTclunk, Tag: 9, Fid: 2},
		{Type: MsgRclunk, Tag: 9},
		{Type: MsgTremove, Tag: 10, Fid: 2},
		{Type: MsgRremove, Tag: 10},
		{Type: MsgTstat, Tag: 11, Fid: 1},
		{Type: MsgTstat, Tag: 11, Fid: 1, TraceID: 7}, // dc
		{Type: MsgRstat, Tag: 11, Stat: st},
		{Type: MsgTwstat, Tag: 12, Fid: 1, Stat: EmptyStat()},
		{Type: MsgRwstat, Tag: 12},
		{Type: MsgTshoot, Tag: 13, Name: "/srv/app/lib", Aname: "perm"}, // dc: a record's path and note
		{Type: MsgTshoot, Tag: 13},                                      // dc: drop everything
		{Type: MsgRshoot, Tag: 13, Count: 9},
	}
	norm := func(x *Fcall) {
		if len(x.Wname) == 0 {
			x.Wname = nil
		}
		if len(x.Wqid) == 0 {
			x.Wqid = nil
		}
		if len(x.Data) == 0 {
			x.Data = nil
		}
	}
	for _, f := range cases {
		got := roundTrip(t, f)
		// nil vs empty slices are indistinguishable on the wire.
		norm(f)
		norm(got)
		if !reflect.DeepEqual(f, got) {
			t.Errorf("%s: round trip mismatch\n  sent %+v\n  got  %+v", MsgName(f.Type), f, got)
		}
	}
}

func TestCodecRejectsTruncated(t *testing.T) {
	buf, err := Marshal(&Fcall{Type: MsgTattach, Tag: 1, Fid: 0, Afid: NoFid, Uname: "root", Aname: "/"})
	if err != nil {
		t.Fatal(err)
	}
	// Chop the frame everywhere after the type byte and make sure the
	// decoder errors instead of panicking or fabricating fields.
	for n := 5; n < len(buf); n++ {
		if _, err := Unmarshal(buf[4:n]); err == nil {
			t.Fatalf("Unmarshal accepted a frame truncated to %d bytes", n)
		}
	}
}

// clunkListShort reports whether body is a Twalk whose bytes after its
// names and a whole trace-id[8] hold less than the clunk list's nclunk[2]
// declares (or less than nclunk[2] itself).
func clunkListShort(body []byte) bool {
	if len(body) < 13 || body[0] != MsgTwalk {
		return false
	}
	rest := body[13:] // type[1] tag[2] fid[4] newfid[4] nwname[2]
	for range int(binary.LittleEndian.Uint16(body[11:])) {
		if len(rest) < 2 || len(rest) < 2+int(binary.LittleEndian.Uint16(rest)) {
			return false
		}
		rest = rest[2+int(binary.LittleEndian.Uint16(rest)):]
	}
	if len(rest) <= 8 {
		return false
	}
	rest = rest[8:]
	return len(rest) < 2 || len(rest) < 2+4*int(binary.LittleEndian.Uint16(rest))
}

// FuzzUnmarshal holds the decoder to five properties on any frame body:
// it never panics; an Rwalk whose errno[4] trailer is cut to 1–3 bytes is
// an error, not errno 0; a Twalk whose clunk list is shorter than its
// nclunk declares is an error, not a shorter list; an Rread with more than
// its eof[1] after its data is an error; and whatever decodes re-marshals
// to a frame that decodes to the same Fcall. Seeds: every frame of
// frameStream, its clunk lists cut short by 1–3 bytes, and the
// truncated-trailer Rwalks and the Rread with a two-byte trailer committed
// under testdata/fuzz/FuzzUnmarshal.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range frameStream() {
		b, err := Marshal(m)
		if err != nil {
			f.Fatalf("Marshal(%s): %v", MsgName(m.Type), err)
		}
		f.Add(b[4:])
		for cut := 1; m.Nclunk > 0 && cut <= 3; cut++ {
			f.Add(b[4 : len(b)-cut])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got Fcall
		err := got.unmarshal(body)
		if len(body) >= 5 && body[0] == MsgRwalk {
			// type[1] tag[2] nwqid[2] qid[13]*nwqid, then the trailer
			n := int(binary.LittleEndian.Uint16(body[3:]))
			if cut := len(body) - 5 - 13*n; cut > 0 && cut < 4 && err == nil {
				t.Fatalf("Rwalk with a %d-byte errno trailer decoded as errno %d", cut, got.Errno)
			}
		}
		if err == nil && clunkListShort(body) {
			t.Fatalf("Twalk with a clunk list shorter than declared decoded as %d clunks", got.Nclunk)
		}
		if len(body) >= 7 && body[0] == MsgRread {
			// type[1] tag[2] count[4] data[count], then the trailer
			n := int64(binary.LittleEndian.Uint32(body[3:]))
			if trailer := int64(len(body)) - 7 - n; trailer > 1 && err == nil {
				t.Fatalf("Rread with %d bytes after its data decoded (eof=%v)", trailer, got.EOF)
			}
		}
		if err != nil {
			return
		}
		out, err := Marshal(&got)
		if err != nil {
			t.Fatalf("decoded %s does not re-marshal: %v", MsgName(got.Type), err)
		}
		var again Fcall
		if err := again.unmarshal(out[4:]); err != nil {
			t.Fatalf("re-marshalled %s does not decode: %v", MsgName(got.Type), err)
		}
		if !reflect.DeepEqual(&got, &again) {
			t.Fatalf("%s changed across a re-marshal\n  first  %+v\n  second %+v", MsgName(got.Type), got, again)
		}
	})
}

func TestReadMsgEnforcesLimits(t *testing.T) {
	if _, err := ReadMsg(bytes.NewReader([]byte{0, 0, 0, 0}), MaxMsize); err == nil {
		t.Error("ReadMsg accepted a zero-size frame")
	}
	huge := []byte{0xff, 0xff, 0xff, 0x7f, MsgTversion}
	if _, err := ReadMsg(bytes.NewReader(huge), MaxMsize); err == nil {
		t.Error("ReadMsg accepted an oversized frame")
	}
}

func TestStatListRoundTrip(t *testing.T) {
	stats := []Stat{
		{Qid: Qid{Type: QTDir, Path: 1}, Mode: DMDir | 0o755, Name: "bin", UID: "0", GID: "0", MUID: "0"},
		{Qid: Qid{Path: 2}, Mode: 0o644, Length: 12, Name: "README", UID: "7", GID: "7", MUID: "7"},
	}
	var buf []byte
	for _, st := range stats {
		buf = append(buf, MarshalStat(st)...)
	}
	got, err := UnmarshalStats(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, got) {
		t.Fatalf("stat list mismatch\n  sent %+v\n  got  %+v", stats, got)
	}
}

func TestErrnoWireMapping(t *testing.T) {
	for _, e := range []fsapi.Errno{fsapi.EACCES, fsapi.ENOENT, fsapi.ENOTDIR, fsapi.EIO} {
		back := EnameErrno(ErrnoEname(e))
		if !errors.Is(back, e) {
			t.Errorf("errno %d: got %v back over the wire", int(e), back)
		}
	}
	if got := EnameErrno("something opaque"); !errors.Is(got, fsapi.EIO) {
		t.Errorf("opaque ename mapped to %v, want EIO", got)
	}
}
