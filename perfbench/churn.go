package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unroller/unroller/internal/baseline"
	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/routing"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/verify"
	"github.com/unroller/unroller/internal/xrand"
)

// churn: one epoch at a time through dataplane.RunChurnObserved on
// Torus(8,8) under distance-vector routing without split horizon.
// Seeded link failures and restores install one convergence round of FIB
// deltas per epoch, so micro-loops open and heal. The verification
// oracle with the Aesop baseline is attached, and reports stream over
// one connection to a journaled collector with one tick per epoch; an
// epoch ends only when the oracle has reconciled it and every report
// and the tick have been acked.
//
// A round replays one of churnPlans seeded plans on a freshly built
// network; rounds cycle through the plans, so a run averages over several
// fault sequences, and every replay of a plan must produce identical
// confusion matrices.
const (
	torusW, torusH = 8, 8
	churnPlans     = 8
	churnEpochs    = 64  // epochs per round
	churnFlows     = 256 // flows per epoch
	churnHotShare  = 16  // one flow in churnHotShare goes to the last faulted node
	churnMaxCut    = 2   // nodes cut off at once, at most
	churnBuffer    = 4096
)

// churnPlan is one seeded fault sequence with its traffic, and the
// oracle's verdicts on its first replay, which later replays must match.
type churnPlan struct {
	seed     uint64
	faults   *dataplane.FaultPlan
	epochs   []dataplane.ChurnEpoch
	replays  int
	ref      []verify.Matrix
	refTotal verify.Matrix
}

type churn struct {
	seed   uint64
	g      *topology.Graph
	assign *topology.Assignment
	proto  *routing.Protocol // converged on the intact torus; installs each round's FIB
	plans  []*churnPlan
	col    *collector

	tag    atomic.Int64
	omu    sync.Mutex // guards repLat, drops and cp
	repLat *reservoir // raise-to-ack latency of the current pass's reports
	drops  int
	cp     *colPass

	rounds      int
	total       verify.Matrix // summed over the rounds of the last pass
	mismatch    int           // replays whose matrices differ from the plan's first
	unexplained int
	violations  int
	divergences int
	raised      atomic.Uint64 // reports handed to the collector
	ticks       uint64

	// per-pass epoch timings (ms) and traced-pass counters
	fault, start, end, drain []float64
	hops, reports            uint64

	final error
	done  bool
}

func setupChurn(seed uint64, dir string) (workload, error) {
	w, err := newChurnPlans(seed)
	if err != nil {
		return nil, err
	}
	w.tag.Store(-1)
	if w.col, err = startCollector(filepath.Join(dir, "journal"), churnBuffer, w.onOutcome); err != nil {
		return nil, err
	}
	return w, nil
}

// newChurnPlans builds the torus with seeded IDs, its converged routes
// and the seeded fault plans: the part of the set-up that needs no
// collector.
func newChurnPlans(seed uint64) (*churn, error) {
	g, err := topology.Torus(torusW, torusH)
	if err != nil {
		return nil, err
	}
	w := &churn{seed: seed, g: g, assign: topology.NewAssignment(g, xrand.New(seed)), repLat: newReservoir(seed)}
	if w.proto, err = convergedDV(g); err != nil {
		return nil, err
	}
	for i := 0; i < churnPlans; i++ {
		pl, err := w.buildPlan(xrand.Mix3(seed, uint64(i), 0xc4a1))
		if err != nil {
			return nil, err
		}
		w.plans = append(w.plans, pl)
	}
	return w, nil
}

// reportProfile replays every plan once, on a fresh network with no
// observer and no collector, and returns the reports the data plane
// raised in each epoch, plan after plan.
func (w *churn) reportProfile() ([]float64, error) {
	var counts []float64
	for _, pl := range w.plans {
		net, err := w.newNet()
		if err != nil {
			return nil, err
		}
		res, err := dataplane.RunChurn(dataplane.NewTrafficEngine(net, 1), pl.faults, pl.epochs)
		if err != nil {
			return nil, err
		}
		for _, e := range res.PerEpoch {
			counts = append(counts, float64(e.Reports))
		}
	}
	return counts, nil
}

// convergedDV runs distance-vector routing without split horizon — the
// configuration that maximises count-to-infinity transients — to a
// fixed point on the intact graph.
func convergedDV(g *topology.Graph) (*routing.Protocol, error) {
	p, err := routing.New(g, routing.DefaultInfinity, false)
	if err != nil {
		return nil, err
	}
	if _, ok := p.Converge(256); !ok {
		return nil, fmt.Errorf("churn: routing did not converge")
	}
	return p, nil
}

// newNet builds the round's network: seeded IDs, the paper's default
// detector, drop on detection, and the converged routes installed.
func (w *churn) newNet() (*dataplane.Network, error) {
	net, err := dataplane.NewNetwork(w.g, w.assign, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	net.Controller = dataplane.NewControllerWithConfig(dataplane.ControllerConfig{MaxEvents: 1024, DedupWindow: 8, MaxAgeTicks: 4})
	net.SetLoopPolicy(dataplane.ActionDrop)
	for dst := 0; dst < w.g.N(); dst++ {
		if err := w.proto.InstallInto(net, dst); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// buildPlan derives the round's fault plan and traffic from the seed.
// Whenever routing has converged, the next epoch cuts a random node off
// (all its links fail at once) or reconnects a cut one. Every epoch
// installs the FIB delta of one more exchange round, so neighbours run
// different rounds' routes; towards a cut node the routers count to
// infinity, and the packets addressed to it loop until routes expire.
// One flow in churnHotShare goes to the node the last fault touched, so
// the report stream stays sparse: a few reports per epoch.
func (w *churn) buildPlan(seed uint64) (*churnPlan, error) {
	rng := xrand.New(seed)
	ref, err := w.newNet() // resolves ports and IDs for the deltas
	if err != nil {
		return nil, err
	}
	dv, err := convergedDV(w.g)
	if err != nil {
		return nil, err
	}
	n := w.g.N()
	prev := make([][]int, n)
	for dst := range prev {
		prev[dst] = dv.NextHops(dst)
	}
	pl := &churnPlan{seed: seed, faults: &dataplane.FaultPlan{}, epochs: make([]dataplane.ChurnEpoch, churnEpochs)}
	var cut []int
	hot, converged := rng.Intn(n), true
	for e := 0; e < churnEpochs; e++ {
		fault := false
		if e > 0 && converged {
			fault = true
			if len(cut) > 0 && (len(cut) >= churnMaxCut || rng.Bool()) {
				i := rng.Intn(len(cut))
				hot = cut[i]
				cut = append(cut[:i], cut[i+1:]...)
				for _, v := range w.g.Neighbors(hot) {
					if err := dv.RestoreLink(hot, v); err != nil {
						return nil, err
					}
					pl.faults.LinkUpAt(e, hot, v)
				}
			} else {
				hot = rng.Intn(n)
				for _, c := range cut {
					if c == hot || w.g.HasEdge(c, hot) {
						fault = false
					}
				}
				if fault {
					cut = append(cut, hot)
					for _, v := range w.g.Neighbors(hot) {
						if err := dv.FailLink(hot, v); err != nil {
							return nil, err
						}
						pl.faults.LinkDownAt(e, hot, v)
					}
				}
			}
		}
		// A failure's endpoints poison their routes at once; later epochs
		// each install one more exchange round.
		if e > 0 && !fault {
			converged = !dv.Step()
		} else if fault {
			converged = false
		}
		var routes []dataplane.RouteUpdate
		for dst := 0; dst < n; dst++ {
			cur := dv.NextHops(dst)
			delta, err := routing.Delta(ref, dst, prev[dst], cur)
			if err != nil {
				return nil, err
			}
			routes = append(routes, delta...)
			prev[dst] = cur
		}
		if len(routes) > 0 {
			pl.faults.RoutesAt(e, routes)
		}
		flows := randomFlows(rng, n, churnFlows, uint32(e)<<16)
		for i := 0; i < len(flows)/churnHotShare; i++ {
			if flows[i].Src != hot {
				flows[i].Dst = hot
			}
		}
		pl.epochs[e] = dataplane.ChurnEpoch{Flows: flows}
	}
	return pl, nil
}

func (w *churn) onOutcome(o outcome) {
	if int64(o.Tag) != w.tag.Load() || o.Tick {
		return
	}
	w.omu.Lock()
	w.repLat.add(latencyMS(o))
	if o.Dropped {
		w.drops++
	}
	w.cp.observe(o)
	w.omu.Unlock()
}

// observer wraps the oracle as the round's ChurnObserver, times each
// epoch boundary, and ends an epoch only once the collector has acked
// everything the epoch sent.
type observer struct {
	w      *churn
	oracle *verify.Oracle
	tr     *tracer
	tag    int

	epochStart int64 // end of the previous epoch
	epochSpan  int
	faultSpan  int
	sendSpan   int
	epochMS    []float64
}

func (o *observer) EpochStart(epoch int, events []dataplane.FaultEvent) error {
	o.tr.end(o.faultSpan)
	t := now()
	if epoch > 0 {
		o.w.fault = append(o.w.fault, float64(t-o.epochStart)/1e6)
	}
	sp := o.tr.begin("verify.epoch_start", o.epochSpan)
	err := o.oracle.EpochStart(epoch, events)
	o.tr.end(sp)
	t2 := now()
	o.w.start = append(o.w.start, float64(t2-t)/1e6)
	o.sendSpan = o.tr.begin("dataplane.sendmany", o.epochSpan)
	return err
}

func (o *observer) EpochEnd(epoch int, sums []dataplane.TraceSummary) error {
	o.tr.end(o.sendSpan)
	t0 := now()
	sp := o.tr.begin("verify.epoch_end", o.epochSpan)
	err := o.oracle.EpochEnd(epoch, sums)
	o.tr.end(sp)
	t1 := now()
	o.w.end = append(o.w.end, float64(t1-t0)/1e6)
	if err != nil {
		return err
	}
	for i := range sums {
		o.w.hops += uint64(sums[i].Hops)
		o.w.reports += uint64(sums[i].Reports)
	}
	sp = o.tr.begin("collectorsvc.drain", o.epochSpan)
	o.w.col.tick(o.tag)
	o.w.ticks++
	err = o.w.col.drain(30 * time.Second)
	o.tr.end(sp)
	t2 := now()
	o.w.drain = append(o.w.drain, float64(t2-t1)/1e6)
	o.epochMS = append(o.epochMS, float64(t2-o.epochStart)/1e6)
	o.tr.end(o.epochSpan)
	o.epochStart = t2
	if epoch+1 < churnEpochs {
		o.openEpoch()
	}
	return err
}

// openEpoch opens the next epoch's span and, under it, the span of the
// fault application and controller tick that precede EpochStart.
func (o *observer) openEpoch() {
	o.epochSpan = o.tr.begin("churn.epoch", -1)
	o.faultSpan = o.tr.begin("dataplane.fault", o.epochSpan)
}

// round runs one replay of the plan on a fresh network and scores it.
func (w *churn) round(pl *churnPlan, tr *tracer, tag int) ([]float64, error) {
	net, err := w.newNet()
	if err != nil {
		return nil, err
	}
	net.OnReport = func(ev dataplane.LoopEvent, hop int) {
		w.raised.Add(1)
		w.col.send(ev, hop, now(), tag, tr, -1)
	}
	oracle := verify.NewOracle(net, pl.seed, baseline.Aesop{})
	obs := &observer{w: w, oracle: oracle, tr: tr, tag: tag}
	eng := dataplane.NewTrafficEngine(net, runtime.NumCPU())
	obs.epochStart = now()
	obs.openEpoch()
	if _, err := dataplane.RunChurnObserved(eng, pl.faults, pl.epochs, obs); err != nil {
		return nil, err
	}
	oracle.Finalize()
	ms, tot := oracle.Matrices(), oracle.Total()
	if pl.replays == 0 {
		pl.ref, pl.refTotal = ms, tot
	} else if !reflect.DeepEqual(ms, pl.ref) || tot != pl.refTotal {
		w.mismatch++
	}
	pl.replays++
	w.rounds++
	if oracle.Unexplained() {
		w.unexplained++
	}
	w.violations += len(oracle.Violations())
	w.divergences += len(oracle.Divergences())
	w.total = addMatrix(w.total, tot)
	return obs.epochMS, nil
}

// addMatrix sums the detection counts the per-layer metrics report.
func addMatrix(a, b verify.Matrix) verify.Matrix {
	a.Confirmed += b.Confirmed
	a.BaseConfirmed += b.BaseConfirmed
	a.DetectHops += b.DetectHops
	a.BaseDetectHops += b.BaseDetectHops
	return a
}

func (w *churn) run(d time.Duration, tr *tracer) (*pass, error) {
	tag := w.tag.Load() + 1
	w.omu.Lock()
	w.repLat.reset()
	w.drops = 0
	w.cp = w.col.beginPass(tr != nil, w.seed)
	w.omu.Unlock()
	w.tag.Store(tag)
	w.fault, w.start, w.end, w.drain = nil, nil, nil, nil
	w.hops, w.reports, w.total = 0, 0, verify.Matrix{}
	raised0 := w.raised.Load()
	p := &pass{}
	clk := startPass()
	rounds := 0
	for rounds == 0 || now()-clk.wall0 < int64(d) {
		ms, err := w.round(w.plans[w.rounds%len(w.plans)], tr, int(tag))
		if err != nil {
			return nil, err
		}
		p.latMS = append(p.latMS, ms...)
		rounds++
	}
	clk.finish(p)
	w.cp.end()
	w.omu.Lock()
	rep, repN := w.repLat.values(), w.repLat.n
	drops := w.drops
	w.omu.Unlock()
	raised := w.raised.Load() - raised0
	p.latN = len(p.latMS)
	p.units = float64(len(p.latMS))
	p.rate = p.units / p.wall.Seconds()
	p.attempted = len(p.latMS) + int(raised) // epochs and reports
	p.failed = drops
	limit := float64(p.wall) / 1e6
	rl, el := summarize(rep), summarize(p.latMS)
	p.named = []named{
		{"epoch_p50_ms", "ms", el.P50, el.N},
		{"epoch_p99_ms", "ms", percentileOr(p.latMS, 99), el.N},
		{"churn_cpu_ms_per_epoch", "ms", float64(p.cpu.Nanoseconds()) / 1e6 / p.units, el.N},
		{"report_p50_ms", "ms", finite(rl.P50, limit), repN},
		{"report_p99_ms", "ms", finite(percentileOr(rep, 99), limit), repN},
		{"report_loss_ratio", "ratio", float64(uint64(drops)+w.cp.queueDropped()) / float64(max(raised, 1)), int(raised)},
		{"detect_hops_mean", "hops", float64(w.total.DetectHops) / float64(max(w.total.Confirmed, 1)), w.total.Confirmed},
	}
	fmt.Printf("epoch latency (ms) %s\nreport latency (ms) %s of %d\nrounds %d of %d epochs\n", el, rl, repN, rounds, churnEpochs)
	return p, nil
}

func (w *churn) layers(tr *tracer, p *pass) (map[string]float64, error) {
	agg := tr.aggregate()
	m := map[string]float64{
		"dataplane.sendmany_p50_ms":    spanP(agg, "dataplane.sendmany", 50),
		"dataplane.sendmany_p99_ms":    spanP(agg, "dataplane.sendmany", 99),
		"dataplane.hops":               float64(w.hops),
		"dataplane.reports":            float64(w.reports),
		"dataplane.fault_ms":           percentileOr(w.fault, 50),
		"verify.epoch_start_ms":        percentileOr(w.start, 50),
		"verify.epoch_end_ms":          percentileOr(w.end, 50),
		"verify.confirmed":             float64(w.total.Confirmed),
		"verify.base_confirmed":        float64(w.total.BaseConfirmed),
		"verify.unexplained":           float64(w.unexplained),
		"verify.violations":            float64(w.violations),
		"verify.divergences":           float64(w.divergences),
		"verify.detect_hops_mean":      ratio(uint64(w.total.DetectHops), uint64(w.total.Confirmed)),
		"verify.base_detect_hops_mean": ratio(uint64(w.total.BaseDetectHops), uint64(w.total.BaseConfirmed)),
		"collectorsvc.send_ns":         spanP(agg, "collectorsvc.send", 50) * 1e6,
		"collectorsvc.drain_ms":        percentileOr(w.drain, 50),
		"bench.unit_self_pct":          selfPct(agg, "churn.epoch"),
	}
	w.cp.layers(m, float64(w.reports))
	return m, nil
}

// check: zero unexplained verdicts, violations and mirror divergences,
// identical confusion matrices in every round, and exact report
// accounting from the data plane through the collector.
func (w *churn) check() error {
	if w.done {
		return w.final
	}
	w.done = true
	w.final = w.verdicts()
	if w.final == nil {
		cs, ss, ctl, err := w.col.finalStats()
		if err == nil {
			err = w.col.checkAccounting(cs, ss, ctl)
		}
		if err == nil && cs.Enqueued != w.raised.Load()+w.ticks {
			err = fmt.Errorf("client enqueued %d != reports raised %d + ticks %d", cs.Enqueued, w.raised.Load(), w.ticks)
		}
		w.final = err
	}
	if w.final != nil {
		w.final = fmt.Errorf("churn: %w", w.final)
	}
	return w.final
}

func (w *churn) verdicts() error {
	if w.unexplained != 0 || w.violations != 0 || w.divergences != 0 {
		return fmt.Errorf("oracle: %d rounds with unexplained verdicts, %d violations, %d divergences",
			w.unexplained, w.violations, w.divergences)
	}
	if w.mismatch != 0 {
		return fmt.Errorf("oracle: %d of %d replays produced different confusion matrices at seed %d", w.mismatch, w.rounds, w.seed)
	}
	for i, pl := range w.plans {
		if pl.replays > 0 && pl.refTotal.Confirmed == 0 {
			return fmt.Errorf("oracle: plan %d confirmed no loop; it exercises nothing", i)
		}
	}
	return nil
}

func (w *churn) close() error { return w.col.close() }
