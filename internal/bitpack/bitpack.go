// Package bitpack implements bit-granular serialisation.
//
// The Unroller packet header (Table 3 of the paper) packs fields that are
// not byte aligned: an 8-bit hop counter, c·H identifiers of z bits each
// (z is typically 7–32), and a log2(Th)-bit threshold counter. Wire-format
// encoding therefore needs a writer/reader that works at bit granularity.
// Bits are written most-significant first within each byte, matching
// network header conventions.
package bitpack

import (
	"errors"
	"fmt"
)

// ErrShortBuffer is returned by Reader when a read runs past the end of the
// underlying buffer.
var ErrShortBuffer = errors.New("bitpack: read past end of buffer")

// Writer appends bit fields to a byte slice.
// The zero value is an empty writer ready for use.
type Writer struct {
	buf  []byte
	nbit uint // number of valid bits in buf
}

// WriteBits appends the low width bits of v, most significant bit first.
// width must be in [0, 64]; width 0 is a no-op.
//
// The field moves a byte at a time: the bits that fill the partly
// written last byte, then whole bytes, then the bits that start a new
// partial byte. Every width takes the same path, and the output is the
// same as writing one bit after another.
func (w *Writer) WriteBits(v uint64, width uint) {
	if width > 64 {
		panic(fmt.Sprintf("bitpack: invalid width %d", width))
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	if width == 0 {
		return
	}
	used := w.nbit % 8 // bits already written in the last byte
	w.nbit += width
	if used != 0 {
		free := 8 - used
		last := len(w.buf) - 1
		if width <= free {
			w.buf[last] |= byte((v << (free - width)) & 0xff)
			return
		}
		width -= free
		w.buf[last] |= byte((v >> width) & 0xff)
	}
	for width >= 8 {
		width -= 8
		w.buf = append(w.buf, byte((v>>width)&0xff))
	}
	if width > 0 {
		w.buf = append(w.buf, byte((v<<(8-width))&0xff))
	}
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() uint { return w.nbit }

// Bytes returns the encoded buffer. The final byte is zero padded.
// The returned slice aliases the writer's internal storage.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse, keeping its allocation.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// ResetBuf points the writer at buf's backing array, preserving buf's
// current contents: subsequent writes append after them and Bytes
// returns the extended slice. No allocation happens until the backing
// array's capacity is exhausted, so callers that re-encode a header
// into a slice they own avoid a scratch buffer per encode.
func (w *Writer) ResetBuf(buf []byte) {
	w.buf = buf
	w.nbit = uint(len(buf)) * 8
}

// Reader consumes bit fields from a byte slice.
type Reader struct {
	buf []byte
	pos uint // bit cursor
}

// NewReader returns a reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBits reads the next width bits (most significant first) and returns
// them in the low bits of the result. width must be in [0, 64]. Like
// WriteBits it moves a byte at a time: the rest of a partly read byte,
// then whole bytes, then the leading bits of the last byte.
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		panic(fmt.Sprintf("bitpack: invalid width %d", width))
	}
	if r.pos+width > uint(len(r.buf))*8 {
		return 0, ErrShortBuffer
	}
	if width == 0 {
		return 0, nil
	}
	idx := r.pos / 8
	off := r.pos % 8
	r.pos += width
	var v uint64
	if off != 0 {
		avail := 8 - off // unread bits left in buf[idx]
		v = uint64(r.buf[idx] & (0xff >> off))
		if width <= avail {
			return v >> (avail - width), nil
		}
		width -= avail
		idx++
	}
	for ; width >= 8; width -= 8 {
		v = v<<8 | uint64(r.buf[idx])
		idx++
	}
	if width > 0 {
		v = v<<width | uint64(r.buf[idx]>>(8-width))
	}
	return v, nil
}

// ReadBool reads a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// Remaining returns how many unread bits are left.
func (r *Reader) Remaining() uint { return uint(len(r.buf))*8 - r.pos }

// Pos returns the current bit offset from the start of the buffer.
func (r *Reader) Pos() uint { return r.pos }
