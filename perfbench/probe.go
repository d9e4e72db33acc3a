package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
)

// The ack-matching latency probe. It sits between a collectorsvc.Client
// and its TCP connection (installed through ClientConfig.Dial), decodes
// every frame the client writes and every ack it reads, and so times each
// report from the moment it was due (or raised) to the read of the
// cumulative ack that covers it, without any change to the client.
//
// Matching rests on three facts of the wire protocol: the client assigns
// sequence numbers in enqueue order when a frame first reaches the wire;
// reports and ticks consume a sequence number while heartbeats do not;
// and an ack of seq s covers every frame at or below s. The client drops
// only the oldest unsent items when its buffer overflows, so the first
// frame written after a gap matches the oldest registration with the same
// content, and the registrations skipped on the way were dropped.

// probeKey is the content of a registered item the probe matches written
// frames against.
type probeKey struct {
	tick                  bool
	flow, reporter        uint32
	hops, node, hop, memb int
}

func reportKey(ev dataplane.LoopEvent, hop int) probeKey {
	return probeKey{
		flow: ev.Flow, reporter: uint32(ev.Reporter), hops: ev.Hops,
		node: ev.Node, hop: hop, memb: len(ev.Members),
	}
}

func frameKey(f collectorsvc.Frame) probeKey {
	if f.Type == collectorsvc.FrameTick {
		return probeKey{tick: true}
	}
	return reportKey(f.Event, f.Hop)
}

// outcome is one resolved registration. Times are on the probe's clock
// in nanoseconds; Written and Acked are meaningless when Dropped.
type outcome struct {
	Tick    bool
	Tag     int
	Dropped bool
	Due     int64
	Written int64
	Acked   int64
}

// latencyMS is the outcome's due-to-ack time in milliseconds; a dropped
// item never completes, so it misses every latency limit.
func latencyMS(o outcome) float64 {
	if o.Dropped {
		return math.Inf(1)
	}
	return float64(o.Acked-o.Due) / 1e6
}

type probeItem struct {
	key     probeKey
	tag     int
	due     int64
	seq     uint64
	written int64
}

// probe matches registered reports and ticks to the frames and acks that
// carry them. All methods are safe for concurrent use.
type probe struct {
	now       func() int64
	onResolve func(outcome) // called with mu held, in resolution order

	mu         sync.Mutex
	pending    []probeItem // registered, not yet on the wire, in enqueue order
	inflight   []probeItem // on the wire, awaiting a covering ack, by seq
	maxSeq     uint64
	registered uint64
	resolved   uint64
	err        error

	writes        uint64 // Write calls that carried at least one new frame
	framesWritten uint64 // new report and tick frames
	retransmits   uint64 // report and tick frames written again
	acks          uint64 // ack frames read
	ackedReports  uint64 // reports resolved by an ack
	lastAck       int64
	maxAckGap     int64

	notify chan struct{} // poked after every resolution; capacity 1 coalesces
}

func newProbe(now func() int64, onResolve func(outcome)) *probe {
	return &probe{now: now, onResolve: onResolve, notify: make(chan struct{}, 1)}
}

// register records an item about to be handed to the client. The caller
// must keep register and the client's Send or Tick in one critical
// section, so registrations are in the client's enqueue order.
func (p *probe) register(key probeKey, due int64, tag int) {
	p.mu.Lock()
	p.pending = append(p.pending, probeItem{key: key, tag: tag, due: due})
	p.registered++
	p.mu.Unlock()
}

// settled reports whether every registration has been resolved.
func (p *probe) settled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resolved == p.registered
}

func (p *probe) resolveLocked(it probeItem, acked int64, dropped bool) {
	p.resolved++
	if p.onResolve != nil {
		p.onResolve(outcome{
			Tick: it.key.tick, Tag: it.tag, Dropped: dropped,
			Due: it.due, Written: it.written, Acked: acked,
		})
	}
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// wroteFrame handles a frame the client put on the wire at time t.
func (p *probe) wroteFrame(f collectorsvc.Frame, t int64) bool {
	if f.Type != collectorsvc.FrameReport && f.Type != collectorsvc.FrameTick {
		return false
	}
	if f.Seq <= p.maxSeq {
		p.retransmits++
		return false
	}
	p.maxSeq = f.Seq
	key := frameKey(f)
	for len(p.pending) > 0 {
		it := p.pending[0]
		p.pending = p.pending[1:]
		if it.key == key {
			it.seq, it.written = f.Seq, t
			p.inflight = append(p.inflight, it)
			p.framesWritten++
			return true
		}
		p.resolveLocked(it, 0, true)
	}
	if p.err == nil {
		p.err = fmt.Errorf("frame seq %d written with no matching registration", f.Seq)
	}
	return false
}

// readAck handles a cumulative ack read at time t.
func (p *probe) readAck(seq uint64, t int64) {
	p.acks++
	if len(p.inflight) > 0 {
		from := p.inflight[0].written
		if p.lastAck > from {
			from = p.lastAck
		}
		if gap := t - from; gap > p.maxAckGap {
			p.maxAckGap = gap
		}
	}
	p.lastAck = t
	n := 0
	for n < len(p.inflight) && p.inflight[n].seq <= seq {
		it := p.inflight[n]
		if !it.key.tick {
			p.ackedReports++
		}
		p.resolveLocked(it, t, false)
		n++
	}
	p.inflight = p.inflight[n:]
}

// dropUnsent resolves every registration not yet on the wire as dropped.
// Call it only once the client has accounted every enqueued item (acked
// or dropped) — then anything never written was dropped by the client.
func (p *probe) dropUnsent() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, it := range p.pending {
		p.resolveLocked(it, 0, true)
	}
	p.pending = p.pending[:0]
}

// finish resolves everything still outstanding as dropped: after the
// client has closed, an unacknowledged frame was counted as dropped by it.
func (p *probe) finish() {
	p.dropUnsent()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, it := range p.inflight {
		p.resolveLocked(it, 0, true)
	}
	p.inflight = p.inflight[:0]
}

// probeCounters is a snapshot of the probe's wire-level counters.
type probeCounters struct {
	Writes, FramesWritten, Retransmits, Acks, AckedReports uint64
	MaxAckGap                                              time.Duration
}

func (p *probe) counters() probeCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return probeCounters{
		Writes: p.writes, FramesWritten: p.framesWritten, Retransmits: p.retransmits,
		Acks: p.acks, AckedReports: p.ackedReports, MaxAckGap: time.Duration(p.maxAckGap),
	}
}

// resetCounters zeroes the wire-level counters, so a pass reports only
// its own traffic.
func (p *probe) resetCounters() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writes, p.framesWritten, p.retransmits, p.acks, p.ackedReports, p.maxAckGap = 0, 0, 0, 0, 0, 0
}

// failure returns the first protocol inconsistency the probe saw.
func (p *probe) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// dial wraps a dialer so every connection it returns is observed.
func (p *probe) dial(inner func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := inner(addr)
		if err != nil {
			return nil, err
		}
		return &probeConn{Conn: c, p: p}, nil
	}
}

// probeConn reassembles the byte streams of one connection into frames.
// Each direction is used by one goroutine of the client, and each buffer
// belongs to one direction.
type probeConn struct {
	net.Conn
	p          *probe
	wbuf, rbuf []byte
}

func (c *probeConn) Write(b []byte) (int, error) {
	// Frames are recorded before the bytes go out: once they do, the
	// server's ack can reach the reader goroutine before this one
	// resumes. A frame whose write fails is retransmitted under the same
	// seq on the next connection and acked there.
	t := c.p.now()
	c.wbuf = append(c.wbuf, b...)
	c.p.mu.Lock()
	fresh := false
	c.wbuf = c.p.scan(c.wbuf, func(f collectorsvc.Frame) {
		if c.p.wroteFrame(f, t) {
			fresh = true
		}
	})
	if fresh {
		c.p.writes++
	}
	c.p.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *probeConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		t := c.p.now()
		c.rbuf = append(c.rbuf, b[:n]...)
		c.p.mu.Lock()
		c.rbuf = c.p.scan(c.rbuf, func(f collectorsvc.Frame) {
			if f.Type == collectorsvc.FrameAck {
				c.p.readAck(f.Seq, t)
			}
		})
		c.p.mu.Unlock()
	}
	return n, err
}

// scan decodes every complete frame at the front of buf, hands each to
// fn, and returns the undecoded remainder moved to the front. Called
// with mu held.
func (p *probe) scan(buf []byte, fn func(collectorsvc.Frame)) []byte {
	off := 0
	for off < len(buf) {
		f, n, err := collectorsvc.DecodeFrame(buf[off:])
		if errors.Is(err, collectorsvc.ErrShortFrame) {
			break
		}
		if err != nil {
			if p.err == nil {
				p.err = fmt.Errorf("undecodable stream: %w", err)
			}
			return buf[:0]
		}
		fn(f)
		off += n
	}
	return append(buf[:0], buf[off:]...)
}

// waitSettled blocks until every registration is resolved, the timeout
// passes, or accounted reports that the client has accounted every
// enqueued item — then unsent registrations are drops the probe could
// not see, because no later frame was written after them.
func (p *probe) waitSettled(timeout time.Duration, accounted func() bool) bool {
	deadline := time.Now().Add(timeout)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !p.settled() {
		select {
		case <-p.notify:
		case <-tick.C:
			if accounted() {
				p.mu.Lock()
				idle := len(p.inflight) == 0
				p.mu.Unlock()
				if idle {
					p.dropUnsent()
				}
			}
			if time.Now().After(deadline) {
				return p.settled()
			}
		}
	}
	return true
}
