package collectorsvc

import (
	"bufio"
	"net"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// connStep is one scripted client action on a raw connection: write
// bytes, or wait for an acknowledgement before going on (which pins that
// the step's frames were answered while the session stayed open).
type connStep struct {
	write   []byte
	wantAck bool
}

// TestServerConnectionScripts pins what one connection does to the
// service counters and the acknowledged high-water mark, for every way a
// session can open, run and end. Each script runs against a fresh
// server; the client half-closes after its last step, so the session
// ends on a clean EOF and the server's final ack is deterministic.
func TestServerConnectionScripts(t *testing.T) {
	ev := dataplane.LoopEvent{Report: detect.Report{Reporter: 3, Hops: 2}, Flow: 17}
	report := func(seq uint64) []byte {
		b, err := AppendReport(nil, seq, ev, 2)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// A report frame with a well-formed length prefix and a wrong wire
	// version: a frame-format error, not a transport one.
	badVersion := report(3)
	badVersion[lenPrefixSize] = WireVersion + 1

	type want struct {
		frames, badFrames, dupes, ingested, ticks uint64
		// acked is the last acknowledged seq; acks=false means the
		// server must never acknowledge anything.
		acks  bool
		acked uint64
	}
	cases := []struct {
		name  string
		steps []connStep
		want  want
	}{
		{
			name: "disconnect before hello",
			want: want{},
		},
		{
			name:  "first frame not a hello",
			steps: []connStep{{write: report(1)}},
			want:  want{badFrames: 1},
		},
		{
			name: "hello then reports and ticks",
			steps: []connStep{{write: cat(AppendHello(nil, 1),
				report(1), report(2), report(3), AppendTick(nil, 4),
				report(5), report(6), AppendTick(nil, 7))}},
			want: want{frames: 7, ingested: 5, ticks: 2, acks: true, acked: 7},
		},
		{
			name: "malformed frame mid-batch",
			steps: []connStep{{write: cat(AppendHello(nil, 1),
				report(1), report(2), badVersion, report(4))}},
			want: want{frames: 2, badFrames: 1, ingested: 2, acks: true, acked: 2},
		},
		{
			name: "unexpected frame type mid-batch",
			steps: []connStep{{write: cat(AppendHello(nil, 1),
				report(1), AppendAck(nil, 1), report(2))}},
			want: want{frames: 2, badFrames: 1, ingested: 1, acks: true, acked: 1},
		},
		{
			name: "retransmitted seq",
			steps: []connStep{{write: cat(AppendHello(nil, 1),
				report(1), report(2), report(1), report(2), report(3))}},
			want: want{frames: 5, dupes: 2, ingested: 3, acks: true, acked: 3},
		},
		{
			name: "repeated same-ID hello",
			steps: []connStep{{write: cat(AppendHello(nil, 1),
				report(1), AppendHello(nil, 1), report(2))}},
			want: want{frames: 3, ingested: 2, acks: true, acked: 2},
		},
		{
			name: "rebind to a new ID",
			steps: []connStep{{write: cat(AppendHello(nil, 1),
				report(1), report(2), AppendHello(nil, 2), report(1))}},
			want: want{frames: 4, ingested: 3, acks: true, acked: 1},
		},
		{
			name: "idle heartbeat",
			steps: []connStep{
				{write: AppendHello(nil, 1)},
				{write: AppendHeartbeat(nil, 0), wantAck: true},
			},
			want: want{frames: 1, acks: true, acked: 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(ServerConfig{Shards: 2})
			defer s.Shutdown()
			addr, err := s.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReaderSize(conn, frameReaderSize)
			var acks []uint64
			readAck := func() bool {
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				f, err := ReadFrameBuffered(br)
				if err != nil {
					return false
				}
				if f.Type != FrameAck {
					t.Fatalf("server sent frame type %d, want only acks", f.Type)
				}
				acks = append(acks, f.Seq)
				return true
			}
			for i, st := range tc.steps {
				if _, err := conn.Write(st.write); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if st.wantAck && !readAck() {
					t.Fatalf("step %d: no ack on an open session", i)
				}
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			for readAck() {
			}
			// The server hung up; wait until its reader has accounted the
			// session before reading the counters.
			deadline := time.Now().Add(5 * time.Second)
			for st := s.Stats(); st.Conns != 1 || st.ActiveConns != 0; st = s.Stats() {
				if time.Now().After(deadline) {
					t.Fatalf("session never ended: %+v", st)
				}
				time.Sleep(2 * time.Millisecond)
			}
			s.Shutdown()
			st := s.Stats()
			got := want{
				frames: st.Frames, badFrames: st.BadFrames, dupes: st.Dupes,
				ingested: st.Ingested, ticks: st.Ticks, acks: len(acks) > 0,
			}
			if got.acks {
				got.acked = acks[len(acks)-1]
			}
			if got != tc.want {
				t.Errorf("got %+v, want %+v (acks %v)", got, tc.want, acks)
			}
			if agg := s.ControllerStats(); agg.Delivered+st.QueueDropped != st.Ingested {
				t.Errorf("delivered %d + queue-dropped %d != ingested %d", agg.Delivered, st.QueueDropped, st.Ingested)
			}
		})
	}
}
