package ninep

import (
	"encoding/binary"
	"fmt"
	"io"
)

// frameBufSize is the frame reader's fixed buffer. Metadata traffic
// (walks, stats, clunks, journal polls) is a few hundred bytes a frame, so
// a warm RPC is one read(2) into this buffer and is decoded where it
// landed; only a large Twrite/Rread payload takes the scratch path.
const frameBufSize = 4096

// frameReader is the one framing implementation, shared by the server's
// connection reader and the client: it splits a byte stream into
// size[4]-prefixed 9P frames, reading ahead into a fixed buffer so a frame
// costs one read on the underlying conn, not one for the size and one for
// the body.
type frameReader struct {
	r      io.Reader
	lo, hi int    // buf[lo:hi] is read but not yet consumed
	big    []byte // reused scratch for frames larger than buf, grown up to msize
	buf    [frameBufSize]byte
}

// checkFrameSize validates a frame's size[4] against the msize in force.
func checkFrameSize(size, msize uint32) error {
	if size < 7 { // size[4] type[1] tag[2]
		return fmt.Errorf("ninep: runt message (size %d)", size)
	}
	if size > msize {
		return fmt.Errorf("ninep: message size %d exceeds msize %d", size, msize)
	}
	return nil
}

// fill reads until at least n unconsumed bytes are buffered (n ≤ len(buf)),
// sliding them to the front first when the tail is too short to hold n.
func (fr *frameReader) fill(n int) error {
	if fr.lo == fr.hi {
		fr.lo, fr.hi = 0, 0
	} else if fr.lo+n > len(fr.buf) {
		fr.hi = copy(fr.buf[:], fr.buf[fr.lo:fr.hi])
		fr.lo = 0
	}
	have := fr.hi - fr.lo
	if have >= n {
		return nil
	}
	got, err := io.ReadAtLeast(fr.r, fr.buf[fr.hi:], n-have)
	fr.hi += got
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF // the stream ended inside a frame
	}
	return err
}

// next returns the body (type[1] onward) of the next frame, refusing one
// larger than msize. The slice aliases the reader's buffers and is valid
// only until the following call: decode it (Fcall.unmarshal copies what it
// keeps) before reading on.
func (fr *frameReader) next(msize uint32) ([]byte, error) {
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(fr.buf[fr.lo:])
	if err := checkFrameSize(size, msize); err != nil {
		return nil, err
	}
	if size <= frameBufSize {
		if err := fr.fill(int(size)); err != nil {
			return nil, err
		}
		body := fr.buf[fr.lo+4 : fr.lo+int(size)]
		fr.lo += int(size)
		return body, nil
	}
	// Larger than the buffer: assemble the body in the scratch slice from
	// what is already buffered plus direct reads.
	n := int(size) - 4
	if cap(fr.big) < n {
		fr.big = make([]byte, n)
	}
	body := fr.big[:n]
	have := copy(body, fr.buf[fr.lo+4:fr.hi])
	fr.lo, fr.hi = 0, 0
	if _, err := io.ReadFull(fr.r, body[have:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}
