package collectorsvc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// TestFrameRoundTrip encodes every frame type and decodes it back, both
// through DecodeFrame (buffer) and ReadFrameBuffered (stream).
func TestFrameRoundTrip(t *testing.T) {
	ev := dataplane.LoopEvent{
		Report:  detect.Report{Reporter: 0xDEADBEEF, Hops: 17},
		Node:    42,
		Flow:    0x01020304,
		Members: []detect.SwitchID{1, 2, 0xFFFFFFFF},
	}
	report, err := AppendReport(nil, 7, ev, 23)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		AppendHello(nil, 0xCAFEBABE12345678),
		report,
		AppendTick(nil, 99),
		AppendAck(nil, 100),
	}
	want := []Frame{
		{Type: FrameHello, ClientID: 0xCAFEBABE12345678},
		{Type: FrameReport, Seq: 7, Hop: 23, Event: ev},
		{Type: FrameTick, Seq: 99},
		{Type: FrameAck, Seq: 100},
	}

	var stream []byte
	for i, buf := range frames {
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(buf) {
			t.Errorf("frame %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !reflect.DeepEqual(f, want[i]) {
			t.Errorf("frame %d: got %+v want %+v", i, f, want[i])
		}
		stream = append(stream, buf...)
	}

	// The same four frames back to back through the stream reader.
	br := bufio.NewReaderSize(bytes.NewReader(stream), frameReaderSize)
	for i := range want {
		f, err := ReadFrameBuffered(br)
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(f, want[i]) {
			t.Errorf("stream frame %d: got %+v want %+v", i, f, want[i])
		}
	}
	if _, err := ReadFrameBuffered(br); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream: got %v, want io.EOF", err)
	}
}

// TestDecodeFrameErrors feeds the decoder structurally broken input and
// checks each failure maps to the right sentinel error.
func TestDecodeFrameErrors(t *testing.T) {
	good, err := AppendReport(nil, 1, dataplane.LoopEvent{
		Report: detect.Report{Reporter: 5, Hops: 3},
		Flow:   9,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	oversize := binary.BigEndian.AppendUint32(nil, MaxFrameBody+1)
	badVersion := append([]byte(nil), good...)
	badVersion[lenPrefixSize] = WireVersion + 1
	badType := append([]byte(nil), good...)
	badType[lenPrefixSize+1] = 200
	// A report frame whose member count promises more members than the
	// body carries.
	badCount := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(badCount[lenPrefixSize+frameOverhead+28:], 3)
	hugeCount := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(hugeCount[lenPrefixSize+frameOverhead+28:], MaxMembers+1)
	// A length prefix smaller than version+type.
	tiny := binary.BigEndian.AppendUint32(nil, 1)
	tiny = append(tiny, WireVersion)

	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"short prefix", good[:3], ErrShortFrame},
		{"truncated body", good[:len(good)-2], ErrShortFrame},
		{"oversize prefix", oversize, ErrOversizeFrame},
		{"sub-header prefix", tiny, ErrBadFrame},
		{"unknown version", badVersion, ErrBadVersion},
		{"unknown type", badType, ErrBadFrame},
		{"member count overruns body", badCount, ErrBadFrame},
		{"member count over cap", hugeCount, ErrBadFrame},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReadFrameTruncation: a stream that dies mid-frame is
// io.ErrUnexpectedEOF (transport), not a wire-format error — the server
// must not count a connection kill as a bad frame.
func TestReadFrameTruncation(t *testing.T) {
	buf := AppendTick(nil, 4)
	for cut := 1; cut < len(buf); cut++ {
		br := bufio.NewReaderSize(bytes.NewReader(buf[:cut]), frameReaderSize)
		_, err := ReadFrameBuffered(br)
		if err == nil {
			t.Fatalf("cut %d: decoded a truncated frame", cut)
		}
		if isWireError(err) {
			t.Errorf("cut %d: truncation classified as wire error: %v", cut, err)
		}
	}
}

// TestReadFrameOversizeNoAlloc: a hostile length prefix is rejected
// from the prefix alone, before any body byte is read or peeked.
func TestReadFrameOversizeNoAlloc(t *testing.T) {
	in := binary.BigEndian.AppendUint32(nil, 1<<30)
	in = append(in, make([]byte, 64)...)
	cr := &chunkReader{r: bytes.NewReader(in), chunk: lenPrefixSize}
	br := bufio.NewReaderSize(cr, frameReaderSize)
	if _, err := ReadFrameBuffered(br); !errors.Is(err, ErrOversizeFrame) {
		t.Fatalf("got %v, want ErrOversizeFrame", err)
	}
	if cr.reads != 1 || br.Buffered() != lenPrefixSize {
		t.Errorf("rejecting the prefix took %d reads and left %d bytes buffered, want 1 and %d", cr.reads, br.Buffered(), lenPrefixSize)
	}
}

// chunkReader hands out at most chunk bytes per Read and counts the
// reads, so a test can see exactly when a bufio.Reader goes back to
// the stream.
type chunkReader struct {
	r     io.Reader
	chunk int
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p[:min(len(p), c.chunk)])
}

// TestAppendReportRejectsBadEvents: events the wire format cannot carry
// are refused at encode time, not mangled.
func TestAppendReportRejectsBadEvents(t *testing.T) {
	tooMany := dataplane.LoopEvent{Members: make([]detect.SwitchID, MaxMembers+1)}
	if _, err := AppendReport(nil, 1, tooMany, 0); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversized membership: got %v, want ErrBadFrame", err)
	}
	if _, err := AppendReport(nil, 1, dataplane.LoopEvent{}, -1); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative hop: got %v, want ErrBadFrame", err)
	}
	negNode := dataplane.LoopEvent{Node: -3}
	if _, err := AppendReport(nil, 1, negNode, 0); !errors.Is(err, ErrBadFrame) {
		t.Errorf("negative node: got %v, want ErrBadFrame", err)
	}
}
