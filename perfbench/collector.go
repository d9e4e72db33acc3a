package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/unroller/unroller/internal/collectorsvc"
	"github.com/unroller/unroller/internal/dataplane"
)

// collectorHost is the address the collector listens on: traffic
// crosses the loopback interface, never a real network.
const collectorHost = "127.0.0.1"

// collector is one journaled collectorsvc.Server on the host disk and the
// single collectorsvc.Client feeding it, with the latency probe on the
// client's connection.
type collector struct {
	dir     string
	journal *collectorsvc.Journal
	srv     *collectorsvc.Server
	client  *collectorsvc.Client
	probe   *probe

	// mu keeps each probe registration and its client enqueue adjacent,
	// so registrations are in the client's enqueue order even when
	// engine workers report concurrently.
	mu     sync.Mutex
	closed bool
}

// startCollector opens a fresh journal in dir (default segment size and
// the default fsync-interval policy), starts the server on loopback and
// connects one client with the given local buffer.
func startCollector(dir string, clientBuffer int, onResolve func(outcome)) (*collector, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j, err := collectorsvc.OpenJournal(collectorsvc.JournalConfig{Dir: dir})
	if err != nil {
		return nil, err
	}
	srv, _, err := collectorsvc.NewRecoveredServer(collectorsvc.ServerConfig{
		Journal:    j,
		Controller: dataplane.ControllerConfig{MaxEvents: 1024, DedupWindow: 8},
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	addr, err := srv.Start(net.JoinHostPort(collectorHost, "0"))
	if err != nil {
		srv.Shutdown()
		j.Close()
		return nil, err
	}
	c := &collector{dir: dir, journal: j, srv: srv, probe: newProbe(now, onResolve)}
	c.client, err = collectorsvc.NewClient(collectorsvc.ClientConfig{
		Addr:   addr.String(),
		ID:     1,
		Buffer: clientBuffer,
		Dial: c.probe.dial(func(a string) (net.Conn, error) {
			return net.DialTimeout("tcp", a, 5*time.Second)
		}),
	})
	if err != nil {
		srv.Shutdown()
		j.Close()
		return nil, err
	}
	return c, nil
}

// send registers a report due (or raised) at due and enqueues it.
func (c *collector) send(ev dataplane.LoopEvent, hop int, due int64, tag int, tr *tracer, parent int) {
	c.mu.Lock()
	c.probe.register(reportKey(ev, hop), due, tag)
	sp := tr.begin("collectorsvc.send", parent)
	c.client.Send(ev, hop)
	tr.end(sp)
	c.mu.Unlock()
}

// tick registers and enqueues an epoch tick.
func (c *collector) tick(tag int) {
	c.mu.Lock()
	c.probe.register(probeKey{tick: true}, now(), tag)
	c.client.Tick()
	c.mu.Unlock()
}

// accounted reports whether the client has acked or dropped every item
// it was handed.
func (c *collector) accounted() bool {
	st := c.client.Stats()
	return st.Acked+st.Dropped == st.Enqueued
}

// drain waits until every registered item has been acked or dropped.
func (c *collector) drain(timeout time.Duration) error {
	if !c.probe.waitSettled(timeout, c.accounted) {
		return fmt.Errorf("collector: items still unacknowledged after %v (client %+v)", timeout, c.client.Stats())
	}
	return nil
}

// shardsIdle reports whether every shard queue is empty.
func (c *collector) shardsIdle() bool {
	for _, q := range c.srv.QueueStats() {
		if q.Depth != 0 {
			return false
		}
	}
	return true
}

// finalStats closes the client (draining it), waits for the shard
// queues, and returns the client, server and merged controller stats.
func (c *collector) finalStats() (collectorsvc.ClientStats, collectorsvc.ServerStats, dataplane.ControllerStats, error) {
	if err := c.client.Close(); err != nil {
		return collectorsvc.ClientStats{}, collectorsvc.ServerStats{}, dataplane.ControllerStats{}, err
	}
	c.probe.finish()
	cs := c.client.Stats()
	// Shard workers hand each batch to the controller after popping it,
	// so wait for the counters to meet, not only for empty queues.
	var ss collectorsvc.ServerStats
	var ctl dataplane.ControllerStats
	waitFor(5*time.Second, func() bool {
		ss, ctl = c.srv.Stats(), c.srv.ControllerStats()
		return c.shardsIdle() && ss.Ingested == ctl.Delivered+ss.QueueDropped-ss.SheddedTicks
	})
	return cs, ss, ctl, nil
}

// checkAccounting verifies the exactly-once identities once the client
// has closed: every enqueued item was acked or dropped by the client,
// every acked frame was accounted by the server, and every ingested
// report reached a shard controller or was counted as a queue drop.
func (c *collector) checkAccounting(cs collectorsvc.ClientStats, ss collectorsvc.ServerStats, ctl dataplane.ControllerStats) error {
	if err := c.probe.failure(); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if cs.Enqueued != cs.Acked+cs.Dropped {
		return fmt.Errorf("client enqueued %d != acked %d + dropped %d", cs.Enqueued, cs.Acked, cs.Dropped)
	}
	if cs.Acked != ss.Ingested+ss.Ticks {
		return fmt.Errorf("client acked %d != server ingested %d + ticks %d", cs.Acked, ss.Ingested, ss.Ticks)
	}
	if ss.Ingested != ctl.Delivered+ss.QueueDropped-ss.SheddedTicks {
		return fmt.Errorf("server ingested %d != delivered %d + queue-dropped reports %d",
			ss.Ingested, ctl.Delivered, ss.QueueDropped-ss.SheddedTicks)
	}
	return nil
}

// close stops the client, server and journal and removes the journal.
func (c *collector) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.client.Close()
	c.probe.finish()
	c.srv.Shutdown()
	err := c.journal.Close()
	if rerr := os.RemoveAll(c.dir); err == nil {
		err = rerr
	}
	return err
}

// colPass brackets one pass on the collector: counter snapshots at its
// start and end and, on a traced pass, the deepest shard queue (sampled
// every millisecond) and each report's queue and wire time.
type colPass struct {
	c      *collector
	traced bool

	j0, j1     collectorsvc.JournalStats
	s0, s1     collectorsvc.ServerStats
	c0, c1     collectorsvc.ClientStats
	ctl0, ctl1 dataplane.ControllerStats
	probe      probeCounters

	mu          sync.Mutex // guards queue and wire
	queue, wire *reservoir

	depthMax   int
	quit, done chan struct{}
}

// beginPass snapshots the counters and, when traced, starts sampling the
// shard queues.
func (c *collector) beginPass(traced bool, seed uint64) *colPass {
	c.probe.resetCounters()
	cp := &colPass{c: c, traced: traced}
	cp.j0, cp.s0, cp.c0, cp.ctl0 = c.journal.Stats(), c.srv.Stats(), c.client.Stats(), c.srv.ControllerStats()
	if !traced {
		return cp
	}
	cp.queue, cp.wire = newReservoir(seed), newReservoir(seed+1)
	cp.quit, cp.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(cp.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			for _, q := range c.srv.QueueStats() {
				cp.depthMax = max(cp.depthMax, q.Depth)
			}
			select {
			case <-cp.quit:
				return
			case <-t.C:
			}
		}
	}()
	return cp
}

// observe records an acked report's time in the client queue (due or
// raise to the first write of its frame) and on the wire (write to the
// read of the covering ack).
func (cp *colPass) observe(o outcome) {
	if !cp.traced || o.Dropped || o.Tick {
		return
	}
	cp.mu.Lock()
	cp.queue.add(float64(o.Written-o.Due) / 1e6)
	cp.wire.add(float64(o.Acked-o.Written) / 1e6)
	cp.mu.Unlock()
}

// end stops the sampler and snapshots the counters; call it once the
// pass has drained.
func (cp *colPass) end() {
	if cp.traced {
		close(cp.quit)
		<-cp.done
	}
	c := cp.c
	cp.probe = c.probe.counters()
	cp.j1, cp.s1, cp.c1, cp.ctl1 = c.journal.Stats(), c.srv.Stats(), c.client.Stats(), c.srv.ControllerStats()
}

// queueDropped is the pass's shard-queue drops.
func (cp *colPass) queueDropped() uint64 { return cp.s1.QueueDropped - cp.s0.QueueDropped }

// layers adds the collectorsvc per-layer metrics of the pass to m;
// reports is the number of reports the pass sent.
func (cp *colPass) layers(m map[string]float64, reports float64) {
	var queue, wire []float64
	if cp.traced {
		cp.mu.Lock()
		queue, wire = cp.queue.values(), cp.wire.values()
		cp.mu.Unlock()
	}
	pc := cp.probe
	m["collectorsvc.client_queue_ms"] = percentileOr(queue, 50)
	m["collectorsvc.wire_p50_ms"] = percentileOr(wire, 50)
	m["collectorsvc.wire_p99_ms"] = percentileOr(wire, 99)
	m["collectorsvc.ack_gap_max_ms"] = float64(pc.MaxAckGap) / 1e6
	m["collectorsvc.frames_per_write"] = ratio(pc.FramesWritten, pc.Writes)
	m["collectorsvc.reports_per_ack"] = ratio(pc.AckedReports, pc.Acks)
	m["collectorsvc.journal_rotations"] = float64(cp.j1.Rotations - cp.j0.Rotations)
	m["collectorsvc.journal_appends"] = float64(cp.j1.Appends - cp.j0.Appends)
	m["collectorsvc.journal_bytes_per_report"] = float64(journalBytes(cp.j0, cp.j1, collectorsvc.DefaultSegmentBytes)) / reports
	m["collectorsvc.queue_depth_max"] = float64(cp.depthMax)
	m["collectorsvc.queue_dropped"] = float64(cp.queueDropped())
	m["collectorsvc.client_dropped"] = float64(cp.c1.Dropped - cp.c0.Dropped)
	m["collectorsvc.retransmits"] = float64(cp.c1.Retransmits - cp.c0.Retransmits)
	m["collectorsvc.dupes"] = float64(cp.s1.Dupes - cp.s0.Dupes)
	m["collectorsvc.dedup_ratio"] = ratio(cp.ctl1.Deduped-cp.ctl0.Deduped, cp.ctl1.Delivered-cp.ctl0.Delivered)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// journalBytes returns the bytes appended to the journal between two
// stats snapshots. On-disk size shrinks when retention deletes a segment
// at rotation; each deleted segment had reached the rotation size.
func journalBytes(a, b collectorsvc.JournalStats, segmentBytes int64) int64 {
	deleted := int64(a.Segments) + int64(b.Rotations-a.Rotations) - int64(b.Segments)
	return b.Bytes - a.Bytes + deleted*segmentBytes
}
