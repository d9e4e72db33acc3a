package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// ingest: an open loop of loop reports replayed into one journaled
// collector at a fixed mean rate, in the bursts the data plane raises
// them in under churn. The reports are captured in set-up from the data
// plane, so the collector does all the measured work and the data plane
// none.
const (
	// ingestRate is the mean offered rate, below long-run capacity:
	// roughly what the data plane raises when a fifth of flows loop.
	ingestRate = 100_000
	// releaseTick is the generator's cadence: every tick releases the
	// reports that arrived since the last one, all due at the tick. Go's
	// timers fire about a millisecond late when the process idles and
	// promptly when it is busy, so a generator sleeping until each
	// arrival would batch differently from run to run; a fixed tick at
	// that granularity batches the same way on every run.
	//
	// The arrival rate follows the churn workload's report profile: the
	// reports its seeded plans raise in each epoch, one epoch per tick,
	// scaled to the mean rate (see reportRates). The churn workload itself
	// runs an epoch in a little under a millisecond, so the bursts keep
	// about the spacing they have there.
	releaseTick = time.Millisecond
	// captureFlows random flows run through FatTree(16) with loops
	// injected towards one destination in loopDstShare.
	captureFlows = 32768
	loopDstShare = 5
	// ingestBuffer is the client's local buffer: about half a second of
	// traffic, so a journal rotation stall delays reports instead of
	// dropping them.
	ingestBuffer = 1 << 16
	// warmReports are sent and acknowledged during set-up, so the first
	// pass starts on an established connection and a warm journal.
	warmReports = 2000
)

type captured struct {
	ev  dataplane.LoopEvent
	hop int
}

type ingest struct {
	seed uint64
	col  *collector
	pop  []captured
	rng  *xrand.Rand

	rates     []float64 // arrivals per ns in each releaseTick, cycled
	ratesPeak float64   // the profile's peak slot over its mean
	ratesIdle float64   // share of slots with no arrivals
	loopShare float64   // share of capture flows that looped
	// Reports are drawn with repetition from the population, so the
	// controller's dedup windows see repeat reporters.
	seen    map[uint32]struct{} // flows drawn so far
	draws   uint64
	repeats uint64

	tag atomic.Int64 // the pass whose outcomes are being collected

	omu     sync.Mutex // guards the outcome samples, counts and cp below
	lat     *reservoir
	acked   int
	dropped int
	cp      *colPass

	late        *reservoir // traced pass: how late each release tick ran
	passReports uint64

	final error // the accounting check, run once by check
	done  bool
}

func setupIngest(seed uint64, dir string) (workload, error) {
	net, err := newFatTree(seed)
	if err != nil {
		return nil, err
	}
	net.SetLoopPolicy(dataplane.ActionCollect)
	rng := xrand.New(seed ^ 0x1e57)
	g := net.Graph
	// Every neighbour of a looping destination forwards into a loop, so
	// nearly every flow towards it loops.
	for i := 0; i < g.N()/loopDstShare; i++ {
		dst := rng.Intn(g.N())
		for _, v := range g.Neighbors(dst) {
			cyc := topology.RandomCycleThrough(g, v, 2, 6, rng)
			if cyc == nil || cyc.Contains(dst) {
				continue
			}
			if err := net.InjectLoop(dst, cyc); err != nil {
				return nil, err
			}
		}
	}
	w := &ingest{
		seed: seed, rng: xrand.New(seed ^ 0x9e7),
		lat: newReservoir(seed), late: newReservoir(seed + 1),
	}
	var mu sync.Mutex
	net.OnReport = func(ev dataplane.LoopEvent, hop int) {
		mu.Lock()
		w.pop = append(w.pop, captured{ev: ev, hop: hop})
		mu.Unlock()
	}
	// One worker, so the captured population is in a seeded order.
	sums, err := dataplane.NewTrafficEngine(net, 1).SendMany(randomFlows(rng, g.N(), captureFlows, 0))
	if err != nil {
		return nil, err
	}
	looped := 0
	for _, s := range sums {
		if s.Reports > 0 {
			looped++
		}
	}
	w.loopShare = float64(looped) / float64(len(sums))
	if len(w.pop) == 0 {
		return nil, fmt.Errorf("ingest: capture raised no reports")
	}
	plans, err := newChurnPlans(seed)
	if err != nil {
		return nil, err
	}
	counts, err := plans.reportProfile()
	if err != nil {
		return nil, err
	}
	if w.rates, w.ratesPeak, w.ratesIdle, err = reportRates(counts, ingestRate); err != nil {
		return nil, err
	}
	w.seen = make(map[uint32]struct{}, len(w.pop))
	w.tag.Store(-1)
	w.col, err = startCollector(filepath.Join(dir, "journal"), ingestBuffer, w.onOutcome)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmReports; i++ {
		r := w.pop[i%len(w.pop)]
		w.col.send(r.ev, r.hop, now(), -1, nil, -1)
	}
	if err := w.col.drain(30 * time.Second); err != nil {
		w.col.close()
		return nil, err
	}
	return w, nil
}

// reportRates turns per-epoch report counts into arrival rates in
// reports per ns, scaled so that their mean is mean per second. It also
// returns the peak rate over the mean and the share of epochs without
// reports.
func reportRates(counts []float64, mean float64) (rates []float64, peak, idle float64, err error) {
	var sum, top float64
	for _, c := range counts {
		sum += c
		top = max(top, c)
		if c == 0 {
			idle++
		}
	}
	if sum == 0 {
		return nil, 0, 0, fmt.Errorf("ingest: the churn plans raised no reports")
	}
	avg := sum / float64(len(counts))
	perNS := mean / 1e9
	rates = make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = perNS * c / avg
	}
	return rates, top / avg, idle / float64(len(counts)), nil
}

// nextArrival returns the offset, in ns from the start of the pass, of
// the first arrival after offset t: a Poisson process whose rate is
// constant within each releaseTick and cycles through w.rates.
func (w *ingest) nextArrival(t int64) int64 {
	need := -math.Log(1 - w.rng.Float64()) // unit-mean exponential
	for {
		slot := t / int64(releaseTick)
		end := (slot + 1) * int64(releaseTick)
		if r := w.rates[slot%int64(len(w.rates))]; r > 0 {
			have := float64(end-t) * r
			if need < have {
				return t + int64(need/r)
			}
			need -= have
		}
		t = end
	}
}

// onOutcome collects the resolved reports of the current pass. It runs
// on the client's goroutines, with the probe's lock held.
func (w *ingest) onOutcome(o outcome) {
	if o.Tag < 0 || int64(o.Tag) != w.tag.Load() || o.Tick { // negative: warm-up
		return
	}
	w.omu.Lock()
	w.lat.add(latencyMS(o))
	if o.Dropped {
		w.dropped++
	} else {
		w.acked++
	}
	w.cp.observe(o)
	w.omu.Unlock()
}

// draw picks the next report: a random captured one.
func (w *ingest) draw() captured {
	w.draws++
	r := w.pop[w.rng.Intn(len(w.pop))]
	if _, ok := w.seen[r.ev.Flow]; ok {
		w.repeats++
	} else {
		w.seen[r.ev.Flow] = struct{}{}
	}
	return r
}

func (w *ingest) run(d time.Duration, tr *tracer) (*pass, error) {
	tag := w.tag.Load() + 1
	w.omu.Lock()
	w.lat.reset()
	w.acked, w.dropped = 0, 0
	w.cp = w.col.beginPass(tr != nil, w.seed)
	w.omu.Unlock()
	w.tag.Store(tag)
	col := w.col
	w.late.reset()
	w.passReports = 0
	p := &pass{}
	clk := startPass()
	start := clk.wall0
	next := start + w.nextArrival(0) // arrival time of the next report
	for tick := start; tick-start < int64(d); tick += int64(releaseTick) {
		if wait := tick - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if tr != nil {
			w.late.add(float64(now()-tick) / 1e6)
		}
		burst := tr.begin("ingest.burst", -1)
		for next <= tick {
			r := w.draw()
			col.send(r.ev, r.hop, tick, int(tag), tr, burst)
			w.passReports++
			next = start + w.nextArrival(next-start)
		}
		tr.end(burst)
	}
	if err := col.drain(60 * time.Second); err != nil {
		return nil, err
	}
	clk.finish(p)
	w.cp.end()

	w.omu.Lock()
	p.latMS, p.latN = w.lat.values(), w.lat.n
	acked, dropped := w.acked, w.dropped
	w.omu.Unlock()
	p.attempted = int(w.passReports)
	p.failed = dropped
	p.units = float64(acked)
	p.rate = p.units / p.wall.Seconds()
	lat := summarize(p.latMS)
	queueDropped := w.cp.queueDropped()
	p.named = []named{
		{"report_p50_ms", "ms", finite(lat.P50, float64(p.wall)/1e6), p.latN},
		{"report_p99_ms", "ms", finite(percentileOr(p.latMS, 99), float64(p.wall)/1e6), p.latN},
		{"report_loss_ratio", "ratio", (float64(dropped) + float64(queueDropped)) / float64(w.passReports), int(w.passReports)},
		{"ingest_cpu_us_per_report", "us", float64(p.cpu.Nanoseconds()) / 1e3 / float64(w.passReports), int(w.passReports)},
		{"ingest_offered_per_s", "1/s", float64(w.passReports) / d.Seconds(), int(w.passReports)},
		{"ingest_profile_peak_ratio", "ratio", w.ratesPeak, len(w.rates)},
		{"ingest_profile_idle_share", "ratio", w.ratesIdle, len(w.rates)},
		{"ingest_loop_flow_share", "ratio", w.loopShare, captureFlows},
		{"ingest_repeated_share", "ratio", float64(w.repeats) / float64(w.draws), int(w.draws)},
	}
	fmt.Printf("report latency (ms) %s of %d\n", lat, p.latN)
	return p, nil
}

func (w *ingest) layers(tr *tracer, p *pass) (map[string]float64, error) {
	agg := tr.aggregate()
	m := map[string]float64{
		"collectorsvc.send_ns":        spanP(agg, "collectorsvc.send", 50) * 1e6,
		"bench.generator_late_p99_ms": percentileOr(w.late.values(), 99),
		"bench.repeated_share":        float64(w.repeats) / float64(w.draws),
		"bench.unit_self_pct":         selfPct(agg, "ingest.burst"),
	}
	w.cp.layers(m, float64(w.passReports))
	return m, nil
}

// check: the client's, the server's and the shard controllers' counts
// agree exactly (see collector.checkAccounting).
func (w *ingest) check() error {
	if err := w.finish(); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}

// finish closes the client and runs the accounting check once.
func (w *ingest) finish() error {
	if w.done {
		return w.final
	}
	w.done = true
	cs, ss, ctl, err := w.col.finalStats()
	if err == nil {
		err = w.col.checkAccounting(cs, ss, ctl)
	}
	w.final = err
	return err
}

func (w *ingest) close() error { return w.col.close() }
