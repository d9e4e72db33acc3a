package collectorsvc

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// FuzzReportFrame throws arbitrary bytes at the frame decoders. The
// invariants under fuzz:
//
//   - no panic, whatever the input (truncated payloads, oversized length
//     prefixes, unknown versions, garbage member counts);
//   - DecodeFrame and ReadFrameBuffered — the reader the server and
//     client run — agree frame by frame over the whole input, with the
//     same error class (wire error or not) where they stop;
//   - whenever frameBuffered reports a frame ready, ReadFrameBuffered
//     returns without another read from the underlying stream (the
//     server's drain loop relies on this never blocking);
//   - anything that decodes successfully re-encodes to bytes that decode
//     to the identical frame (the codec is self-consistent).
func FuzzReportFrame(f *testing.F) {
	ev := dataplane.LoopEvent{
		Report:  detect.Report{Reporter: 0xDEADBEEF, Hops: 6},
		Node:    3,
		Flow:    77,
		Members: []detect.SwitchID{0xA, 0xB},
	}
	report, err := AppendReport(nil, 12, ev, 6)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(report)
	f.Add(AppendHello(nil, 1))
	f.Add(AppendTick(nil, 2))
	f.Add(AppendAck(nil, 3))
	f.Add(report[:len(report)-3])           // truncated mid-body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})   // absurd length prefix
	f.Add([]byte{0, 0, 0, 2, 9, FrameTick}) // unknown version
	// Two hellos, a bodiless tick, and two bytes of padding: 36 bytes,
	// so 11-byte chunks, and the tick's first five bytes arrive with the
	// second hello — one byte short of a frame frameBuffered must not
	// call ready.
	f.Add(append(append(AppendHello(AppendHello(nil, 1), 2), 0, 0, 0, 2, WireVersion, FrameTick), 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The stream arrives in chunks whose size the input picks, so
		// frames straddle reads in every way.
		cr := &chunkReader{r: bytes.NewReader(data), chunk: 1 + len(data)%13}
		br := bufio.NewReaderSize(cr, frameReaderSize)
		for off := 0; ; {
			df, dn, derr := DecodeFrame(data[off:])
			ready := frameBuffered(br)
			reads := cr.reads
			sf, serr := ReadFrameBuffered(br)
			if ready && cr.reads != reads {
				t.Fatalf("frameBuffered reported a frame at byte %d, but ReadFrameBuffered read the stream again", off)
			}
			if (derr == nil) != (serr == nil) || isWireError(derr) != isWireError(serr) {
				t.Fatalf("decoders disagree at byte %d: DecodeFrame err=%v, ReadFrameBuffered err=%v", off, derr, serr)
			}
			if derr != nil {
				return
			}
			if dn <= 0 || off+dn > len(data) {
				t.Fatalf("consumed %d of %d bytes at byte %d", dn, len(data)-off, off)
			}
			if !reflect.DeepEqual(df, sf) {
				t.Fatalf("decoders disagree on frame at byte %d: %+v vs %+v", off, df, sf)
			}
			checkReencode(t, df)
			off += dn
		}
	})
}

// checkReencode re-encodes a decoded frame and decodes it again: the
// codec must be a fixed point.
func checkReencode(t *testing.T, df Frame) {
	t.Helper()
	var out []byte
	var err error
	switch df.Type {
	case FrameHello:
		out = AppendHello(nil, df.ClientID)
	case FrameReport:
		out, err = AppendReport(nil, df.Seq, df.Event, df.Hop)
	case FrameTick:
		out = AppendTick(nil, df.Seq)
	case FrameAck:
		out = AppendAck(nil, df.Seq)
	case FrameHeartbeat:
		out = AppendHeartbeat(nil, df.Seq)
	default:
		t.Fatalf("decoder produced unknown type %d", df.Type)
	}
	if err != nil {
		t.Fatalf("re-encoding a decoded frame: %v", err)
	}
	back, bn, err := DecodeFrame(out)
	if err != nil {
		t.Fatalf("decoding a re-encoded frame: %v", err)
	}
	if bn != len(out) || !reflect.DeepEqual(back, df) {
		t.Fatalf("round trip drifted: %+v vs %+v", back, df)
	}
}
