package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// fwd: a closed loop of back-to-back TrafficEngine.SendMany batches of
// random all-pairs, header-only telemetry flows on FatTree(16) — 320
// switches and an all-destination FIB of ~102k entries, larger than the
// per-core caches — with no loops and no collector. The per-hop path
// (header codec, FIB lookup, packet marshal) does almost all the work.
const (
	fatTreeK    = 16
	fwdBatch    = 1024 // flows per SendMany call
	fwdPool     = 128  // distinct batches generated in set-up and cycled
	replayFlows = 512  // flows replayed hop by hop in the traced pass
	replayReps  = 31   // repetitions of each replay timing; the median is kept
)

type fwd struct {
	net     *dataplane.Network
	eng     *dataplane.TrafficEngine
	batches [][]dataplane.Flow
	next    int

	flows, undelivered, reports uint64

	// traced-pass counters
	hops0, hopsSwitch uint64
	allocs, hops      uint64
}

// newFatTree builds FatTree(16) with seeded switch IDs, the paper's
// default detector configuration, and shortest-path routes to every
// destination.
func newFatTree(seed uint64) (*dataplane.Network, error) {
	g, err := topology.FatTree(fatTreeK)
	if err != nil {
		return nil, err
	}
	net, err := dataplane.NewNetwork(g, topology.NewAssignment(g, xrand.New(seed)), core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	for dst := 0; dst < g.N(); dst++ {
		if err := net.InstallShortestPaths(dst); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// randomFlows draws count flows between distinct random nodes, with
// consecutive IDs from firstID.
func randomFlows(rng *xrand.Rand, nodes, count int, firstID uint32) []dataplane.Flow {
	fs := make([]dataplane.Flow, count)
	for i := range fs {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		fs[i] = dataplane.Flow{Src: src, Dst: dst, ID: firstID + uint32(i), TTL: dataplane.InitialTTL, Telemetry: true}
	}
	return fs
}

func setupFwd(seed uint64, _ string) (workload, error) {
	net, err := newFatTree(seed)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(seed ^ 0xf0d)
	w := &fwd{net: net, eng: dataplane.NewTrafficEngine(net, runtime.NumCPU())}
	for b := 0; b < fwdPool; b++ {
		w.batches = append(w.batches, randomFlows(rng, net.Graph.N(), fwdBatch, uint32(b*fwdBatch)))
	}
	return w, nil
}

func (w *fwd) switchHops() uint64 {
	var n uint64
	for u := 0; u < w.net.Graph.N(); u++ {
		n += w.net.Switch(u).Stats().Received
	}
	return n
}

func (w *fwd) run(d time.Duration, tr *tracer) (*pass, error) {
	p := &pass{}
	var hops uint64
	if tr != nil {
		w.hops0 = w.switchHops()
		w.allocs, w.hops = 0, 0
	}
	clk := startPass()
	for time.Duration(now()-clk.wall0) < d {
		b := w.batches[w.next%len(w.batches)]
		w.next++
		root := tr.begin("fwd.batch", -1)
		sp := tr.begin("dataplane.sendmany", root)
		var a0 uint64
		if tr != nil {
			a0 = allocObjects()
		}
		t0 := now()
		sums, err := w.eng.SendMany(b)
		t1 := now()
		if tr != nil {
			w.allocs += allocObjects() - a0
		}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("SendMany: %w", err)
		}
		p.latMS = append(p.latMS, float64(t1-t0)/1e6)
		var bh uint64
		for i := range sums {
			s := &sums[i]
			bh += uint64(s.Hops)
			w.reports += uint64(s.Reports)
			if s.Final != dataplane.Deliver {
				w.undelivered++
				p.failed++
			}
		}
		hops += bh
		if tr != nil {
			w.hops += bh
		}
		w.flows += uint64(len(b))
		p.attempted += len(b)
		tr.end(root)
	}
	clk.finish(p)
	p.latN = len(p.latMS)
	p.units = float64(hops)
	p.rate = p.units / p.wall.Seconds()
	p.named = []named{
		{"fwd_mhops_per_s", "Mhops/s", p.rate / 1e6, len(p.latMS)},
		{"fwd_cpu_ns_per_hop", "ns", float64(p.cpu.Nanoseconds()) / float64(hops), int(hops)},
	}
	if tr != nil {
		w.hopsSwitch = w.switchHops() - w.hops0
	}
	return p, nil
}

// check: every flow is delivered and nothing reported a loop.
func (w *fwd) check() error {
	if w.undelivered != 0 || w.reports != 0 || w.net.Controller.Count() != 0 {
		return fmt.Errorf("fwd: %d of %d flows undelivered, %d reports, controller holds %d events (want all delivered, none reported)",
			w.undelivered, w.flows, w.reports, w.net.Controller.Count())
	}
	return nil
}

func (w *fwd) close() error { return nil }

func (w *fwd) layers(tr *tracer, p *pass) (map[string]float64, error) {
	agg := tr.aggregate()
	m := map[string]float64{
		"dataplane.sendmany_p50_ms": spanP(agg, "dataplane.sendmany", 50),
		"dataplane.sendmany_p99_ms": spanP(agg, "dataplane.sendmany", 99),
		"dataplane.hops":            float64(w.hopsSwitch),
		"dataplane.reports":         float64(w.net.Controller.Stats().Delivered),
		"dataplane.allocs_per_hop":  float64(w.allocs) / float64(w.hops),
		"bench.unit_self_pct":       selfPct(agg, "fwd.batch"),
	}
	// The hop-by-hop replay runs after the pass, on a sample of the
	// pass's own flows: it bumps switch counters, which the pass has
	// already read.
	sample := w.batches[0][:replayFlows]
	if err := replayLayers(w.net, sample, m); err != nil {
		return nil, err
	}
	return m, nil
}

// hopRec is one hop of a replayed flow: the frame as it arrives at node.
type hopRec struct {
	node int
	wire []byte
}

// recordHops replays flows hop by hop through the public per-hop API —
// Packet.MarshalAppend/Unmarshal, Switch.Process, Switch.Peer — and
// returns every hop's arriving frame.
func recordHops(net *dataplane.Network, flows []dataplane.Flow) ([]hopRec, error) {
	var recs []hopRec
	for _, f := range flows {
		tel, err := net.Unroller().NewPacketState().AppendHeader(nil)
		if err != nil {
			return nil, err
		}
		p := dataplane.Packet{TTL: f.TTL, Flow: f.ID, Src: net.Assign.ID(f.Src), Dst: net.Assign.ID(f.Dst), Telemetry: tel}
		cur := f.Src
		for {
			wire, err := p.MarshalAppend(nil)
			if err != nil {
				return nil, err
			}
			recs = append(recs, hopRec{node: cur, wire: wire})
			var q dataplane.Packet
			if err := q.Unmarshal(append([]byte(nil), wire...)); err != nil {
				return nil, err
			}
			dec, err := net.Switch(cur).Process(&q)
			if err != nil {
				return nil, err
			}
			if dec.Disposition != dataplane.Forward {
				if dec.Disposition != dataplane.Deliver {
					return nil, fmt.Errorf("replay: flow %d ended %v", f.ID, dec.Disposition)
				}
				break
			}
			cur = net.Switch(cur).Peer(dec.Egress)
			p = q
		}
	}
	return recs, nil
}

// timeEach runs body replayReps times and returns the median time per
// item in ns; prep, when non-nil, runs untimed before each repetition.
func timeEach(items int, prep, body func()) float64 {
	per := make([]float64, replayReps)
	for r := range per {
		if prep != nil {
			prep()
		}
		t0 := now()
		body()
		per[r] = float64(now()-t0) / float64(items)
	}
	return median(per)
}

// replayLayers measures the per-hop costs of the data plane and of the
// Unroller header codec on the hops of the sample flows, plus the
// single-worker cost per hop with telemetry on and off.
func replayLayers(net *dataplane.Network, sample []dataplane.Flow, m map[string]float64) error {
	recs, err := recordHops(net, sample)
	if err != nil {
		return err
	}
	n := len(recs)
	pkts := make([]dataplane.Packet, n)
	for i, r := range recs {
		if err := pkts[i].Unmarshal(r.wire); err != nil {
			return err
		}
	}
	var buf []byte
	var sink int
	m["dataplane.packet_marshal_ns"] = timeEach(n, nil, func() {
		for i := range pkts {
			buf, _ = pkts[i].MarshalAppend(buf[:0])
		}
	})
	var q dataplane.Packet
	m["dataplane.packet_unmarshal_ns"] = timeEach(n, nil, func() {
		for i := range recs {
			_ = q.Unmarshal(recs[i].wire)
		}
	})
	m["dataplane.route_ns"] = timeEach(n, nil, func() {
		for i := range recs {
			if port, ok := net.Switch(recs[i].node).Route(pkts[i].Dst); ok {
				sink += int(port)
			}
		}
	})
	// Process rewrites the telemetry in place, so every repetition
	// parses fresh copies of the frames first.
	work := make([]dataplane.Packet, n)
	arena := make([][]byte, n)
	fresh := func() {
		for i, r := range recs {
			arena[i] = append(arena[i][:0], r.wire...)
			_ = work[i].Unmarshal(arena[i])
		}
	}
	m["dataplane.process_ns"] = timeEach(n, fresh, func() {
		for i := range work {
			dec, _ := net.Switch(recs[i].node).Process(&work[i])
			sink += int(dec.Disposition)
		}
	})

	u := net.Unroller()
	states := make([]*core.State, n)
	ids := make([]detect.SwitchID, n)
	for i := range states {
		states[i] = u.NewPacketState()
		ids[i] = net.Switch(recs[i].node).ID
	}
	m["core.decode_ns"] = timeEach(n, nil, func() {
		for i := range pkts {
			_ = u.DecodeHeaderInto(states[i], pkts[i].Telemetry)
		}
	})
	decodeAll := func() {
		for i := range pkts {
			_ = u.DecodeHeaderInto(states[i], pkts[i].Telemetry)
		}
	}
	m["core.visit_ns"] = timeEach(n, decodeAll, func() {
		for i := range states {
			sink += int(states[i].Visit(ids[i]))
		}
	})
	m["core.encode_ns"] = timeEach(n, nil, func() {
		for i := range states {
			buf, _ = states[i].AppendHeader(buf[:0])
		}
	})
	m["core.header_bytes"] = float64(u.Config().HeaderBytes())

	// Whole-journey cost per hop on one worker, the same flows with the
	// Unroller header and without it (the bare-forwarding reference).
	one := dataplane.NewTrafficEngine(net, 1)
	blind := make([]dataplane.Flow, len(sample))
	copy(blind, sample)
	for i := range blind {
		blind[i].Telemetry = false
	}
	perHop := func(flows []dataplane.Flow) (float64, error) {
		var err error
		v := timeEach(1, nil, func() {
			sums, e := one.SendMany(flows)
			if e != nil {
				err = e
			}
			sink += len(sums)
		})
		return v / float64(n), err
	}
	if m["dataplane.telemetry_ns_per_hop"], err = perHop(sample); err != nil {
		return err
	}
	if m["dataplane.blind_ns_per_hop"], err = perHop(blind); err != nil {
		return err
	}
	replaySink += sink
	return nil
}

// replaySink keeps the replay loops' results observable.
var replaySink int
