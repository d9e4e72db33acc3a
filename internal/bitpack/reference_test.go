package bitpack

import (
	"bytes"
	"testing"

	"github.com/unroller/unroller/internal/xrand"
)

// refWriter and refReader are the bit-at-a-time codec that Writer and
// Reader replaced, kept as the reference FuzzWriterMatchesReference
// compares the byte-at-a-time codec against.
type refWriter struct {
	buf  []byte
	nbit uint
}

func (w *refWriter) writeBits(v uint64, width uint) {
	if width < 64 {
		v &= (1 << width) - 1
	}
	for width > 0 {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbit%8
		take := free
		if width < take {
			take = width
		}
		chunk := byte((v >> (width - take)) & (1<<take - 1))
		//unroller:allow wirewidth -- chunk has ≤ take bits; take + (free−take) = free ≤ 8
		w.buf[len(w.buf)-1] |= chunk << (free - take)
		w.nbit += take
		width -= take
	}
}

type refReader struct {
	buf []byte
	pos uint
}

func (r *refReader) readBits(width uint) (uint64, error) {
	if r.pos+width > uint(len(r.buf))*8 {
		return 0, ErrShortBuffer
	}
	var v uint64
	for remaining := width; remaining > 0; {
		avail := 8 - r.pos%8
		take := avail
		if remaining < take {
			take = remaining
		}
		chunk := uint64(r.buf[r.pos/8]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.pos += take
		remaining -= take
	}
	return v, nil
}

// FuzzWriterMatchesReference writes a fuzzer-chosen sequence of widths
// in [0, 64] after a non-empty prefix (through ResetBuf, with stale
// bytes in the spare capacity) and requires the Writer to produce the
// reference's bytes and bit length exactly. Reading the result back, the
// Reader and the reference reader must return the same values — the
// written ones — at every offset, and both must refuse a read past the
// end.
func FuzzWriterMatchesReference(f *testing.F) {
	for _, w := range []byte{1, 7, 8, 9, 31, 32, 33, 63, 64} {
		f.Add([]byte{0xA5}, []byte{w, w, w, w, w, w, w, w, w}, uint64(w))
	}
	f.Add([]byte{0x01, 0x80}, []byte{1, 7, 8, 9, 31, 32, 33, 63, 64, 0, 3}, uint64(0xC0FFEE))
	f.Fuzz(func(t *testing.T, prefix, widths []byte, seed uint64) {
		if len(prefix) == 0 {
			prefix = []byte{0x5A}
		}
		rng := xrand.New(seed)
		vals := make([]uint64, len(widths))
		for i := range vals {
			vals[i] = rng.Uint64()
		}

		buf := make([]byte, len(prefix), len(prefix)+16)
		copy(buf, prefix)
		spare := buf[len(buf):cap(buf)]
		for i := range spare {
			spare[i] = 0xFF // stale bytes a reused buffer may hold
		}
		var w Writer
		w.ResetBuf(buf)
		ref := refWriter{buf: append([]byte(nil), prefix...), nbit: uint(len(prefix)) * 8}
		for i, wb := range widths {
			width := uint(wb % 65)
			w.WriteBits(vals[i], width)
			ref.writeBits(vals[i], width)
			if !bytes.Equal(w.Bytes(), ref.buf) || w.Len() != ref.nbit {
				t.Fatalf("after write %d (width %d): % x (%d bits), reference % x (%d bits)",
					i, width, w.Bytes(), w.Len(), ref.buf, ref.nbit)
			}
		}

		r := NewReader(w.Bytes())
		rr := refReader{buf: w.Bytes()}
		for range prefix {
			got, err := r.ReadBits(8)
			want, _ := rr.readBits(8)
			if err != nil || got != want {
				t.Fatalf("prefix byte: %#x, %v; reference %#x", got, err, want)
			}
		}
		for i, wb := range widths {
			width := uint(wb % 65)
			got, err := r.ReadBits(width)
			if err != nil {
				t.Fatalf("read %d (width %d): %v", i, width, err)
			}
			want, _ := rr.readBits(width)
			masked := vals[i]
			if width < 64 {
				masked &= (1 << width) - 1
			}
			if got != want || got != masked {
				t.Fatalf("read %d (width %d) at bit %d: %#x, reference %#x, written %#x", i, width, rr.pos-width, got, want, masked)
			}
		}
		over := r.Remaining() + 1
		if over <= 64 {
			if _, err := r.ReadBits(over); err != ErrShortBuffer {
				t.Fatalf("read of %d bits past the end: %v", over, err)
			}
			if _, err := rr.readBits(over); err != ErrShortBuffer {
				t.Fatalf("reference read of %d bits past the end: %v", over, err)
			}
		}
	})
}
