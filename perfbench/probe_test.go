package main

import (
	"math"
	"net"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
)

// nopConn accepts every write; reads are fed through feed.
type nopConn struct {
	net.Conn
	in []byte
}

func (c *nopConn) Write(b []byte) (int, error) { return len(b), nil }
func (c *nopConn) Read(b []byte) (int, error) {
	n := copy(b, c.in)
	c.in = c.in[n:]
	return n, nil
}

type probeRig struct {
	t     *testing.T
	clock int64
	p     *probe
	conn  *probeConn
	raw   *nopConn
	out   []outcome
}

func newProbeRig(t *testing.T) *probeRig {
	r := &probeRig{t: t}
	r.p = newProbe(func() int64 { return r.clock }, func(o outcome) { r.out = append(r.out, o) })
	r.raw = &nopConn{}
	c, err := r.p.dial(func(string) (net.Conn, error) { return r.raw, nil })("x")
	if err != nil {
		t.Fatal(err)
	}
	r.conn = c.(*probeConn)
	return r
}

func event(flow uint32) dataplane.LoopEvent {
	return dataplane.LoopEvent{Report: detect.Report{Reporter: 7, Hops: 3}, Node: 2, Flow: flow}
}

func (r *probeRig) write(at int64, b []byte) {
	r.clock = at
	if _, err := r.conn.Write(b); err != nil {
		r.t.Fatal(err)
	}
}

func (r *probeRig) ack(at int64, seq uint64) {
	r.clock = at
	r.raw.in = collectorsvc.AppendAck(nil, seq)
	buf := make([]byte, 64)
	if _, err := r.conn.Read(buf); err != nil {
		r.t.Fatal(err)
	}
}

func report(t *testing.T, seq uint64, flow uint32) []byte {
	b, err := collectorsvc.AppendReport(nil, seq, event(flow), 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestProbeCumulativeAckWithTicksAndHeartbeats(t *testing.T) {
	r := newProbeRig(t)
	r.p.register(reportKey(event(1), 4), 10, 0)
	r.p.register(reportKey(event(2), 4), 20, 0)
	r.p.register(probeKey{tick: true}, 25, 0)
	r.p.register(reportKey(event(3), 4), 30, 0)

	// Hello, then two reports in one write and a frame split across two
	// writes, timed by the write that completes it; the heartbeat carries
	// a seq but consumes none.
	batch := collectorsvc.AppendHello(nil, 99)
	batch = append(batch, report(t, 1, 1)...)
	batch = append(batch, report(t, 2, 2)...)
	r.write(100, batch)
	tick := collectorsvc.AppendTick(nil, 3)
	r.write(110, tick[:5])
	r.write(120, tick[5:])
	r.write(125, collectorsvc.AppendHeartbeat(nil, 3))
	r.write(130, report(t, 4, 3))

	r.ack(200, 3) // covers both reports and the tick
	if len(r.out) != 3 {
		t.Fatalf("ack 3 resolved %d items, want 3", len(r.out))
	}
	want := []outcome{
		{Due: 10, Written: 100, Acked: 200},
		{Due: 20, Written: 100, Acked: 200},
		{Tick: true, Due: 25, Written: 120, Acked: 200},
	}
	for i, w := range want {
		if r.out[i] != w {
			t.Errorf("outcome %d = %+v, want %+v", i, r.out[i], w)
		}
	}
	r.ack(260, 4)
	if got := r.out[3]; got.Dropped || got.Due != 30 || got.Written != 130 || got.Acked != 260 {
		t.Fatalf("last report %+v", got)
	}
	c := r.p.counters()
	if c.Acks != 2 || c.AckedReports != 3 || c.FramesWritten != 4 || c.Writes != 3 {
		t.Fatalf("counters %+v", c)
	}
	// The longest stretch with frames outstanding and no ack: from the
	// first write (100) to the first ack (200).
	if c.MaxAckGap != 100 {
		t.Fatalf("max ack gap %v, want 100ns", c.MaxAckGap)
	}
	if !r.p.settled() || r.p.failure() != nil {
		t.Fatalf("settled=%v err=%v", r.p.settled(), r.p.failure())
	}
}

func TestProbeDroppedReportMissesTheLimit(t *testing.T) {
	r := newProbeRig(t)
	for flow := uint32(1); flow <= 3; flow++ {
		r.p.register(reportKey(event(flow), 4), int64(flow), 0)
	}
	// The client's buffer overflowed and dropped flow 1, the oldest
	// unsent report: the first frame on the wire is flow 2 at seq 1.
	r.write(50, report(t, 1, 2))
	if len(r.out) != 1 || !r.out[0].Dropped || r.out[0].Due != 1 {
		t.Fatalf("outcomes after first write: %+v", r.out)
	}
	// A retransmission of seq 1 changes nothing.
	r.write(60, report(t, 1, 2))
	if c := r.p.counters(); c.Retransmits != 1 {
		t.Fatalf("retransmits %d, want 1", c.Retransmits)
	}
	r.ack(70, 1)
	// Flow 3 was dropped too and nothing followed it on the wire: once
	// the client has accounted everything, the wait resolves it.
	if !r.p.waitSettled(time.Second, func() bool { return true }) {
		t.Fatal("probe did not settle")
	}
	if len(r.out) != 3 || !r.out[2].Dropped || r.out[2].Due != 3 {
		t.Fatalf("outcomes %+v", r.out)
	}
	lat := make([]float64, 0, len(r.out))
	for _, o := range r.out {
		lat = append(lat, latencyMS(o))
	}
	if s := summarize(lat); !math.IsInf(s.P50, 1) {
		t.Fatalf("two of three reports dropped, median latency %g, want +Inf", s.P50)
	}
}

func TestProbeRejectsUnregisteredFrame(t *testing.T) {
	r := newProbeRig(t)
	r.write(1, report(t, 1, 9))
	if r.p.failure() == nil {
		t.Fatal("a frame nobody registered went unnoticed")
	}
}
