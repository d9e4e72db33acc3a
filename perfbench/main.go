// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the public entry points of internal/dataplane,
// internal/core, internal/verify and internal/collectorsvc, checks the
// outputs, and prints every metric by name with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the run is split into an untraced and a traced pass, and
// the metrics are the per-layer ones, derived from spans the benchmark
// records around each call into a layer and from each layer's Stats().
// See README.md for the workloads and the layer-to-metric map.
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench -workload fwd|ingest|churn -seed N -seconds S -trace 0|1 [-out DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 15

// base anchors the benchmark's monotonic clock.
var base = time.Now()

// now is the benchmark clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(base)) }

// workload is one benchmark workload after set-up.
type workload interface {
	// run measures one pass of about d; tr is nil on an untraced pass.
	run(d time.Duration, tr *tracer) (*pass, error)
	// layers derives the per-layer metrics of the last (traced) pass.
	layers(tr *tracer, p *pass) (map[string]float64, error)
	// check verifies the outputs of every pass run so far.
	check() error
	// close stops everything the set-up started.
	close() error
}

// setupFunc builds a workload from its seed; dir is a fresh directory
// for any files it keeps (the collector's journal).
type setupFunc func(seed uint64, dir string) (workload, error)

var workloads = map[string]setupFunc{
	"fwd":    setupFwd,
	"ingest": setupIngest,
	"churn":  setupChurn,
}

// pass is what one measured pass yields.
type pass struct {
	start     int64 // benchmark clock at the start of the pass
	wall      time.Duration
	cpu       time.Duration
	units     float64   // work units completed: hops, reports or epochs
	rate      float64   // throughput_per_s: units per second
	latMS     []float64 // latency of the workload's unit of work, sampled
	latN      int       // latency observations, of which latMS is a sample
	attempted int
	failed    int
	// named are the workload's metrics under the names the design uses
	// (fwd_mhops_per_s, report_p99_ms, ...), printed for the reader.
	named []named
}

type named struct {
	name, unit string
	value      float64
	n          int
}

// metric is one entry of the result's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: fwd, ingest or churn")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = untraced pass, then a traced pass reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for journals and span files")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runDir, err := filepath.Abs(filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(runDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	res, err := measure(setup, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, runDir, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up setupRepeats times, runs its passes and
// checks, and returns the result. A non-nil result with a non-nil error
// is a run whose output checks failed.
func measure(setup setupFunc, name string, seed uint64, d time.Duration, traced bool, runDir, outDir string) (*result, error) {
	hw := newHeapWatch()
	defer hw.stop()

	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			w = nil
		}
		// Every set-up starts from a collected heap, so the garbage the
		// previous one left does not decide where its collections fall.
		runtime.GC()
		t0 := time.Now()
		nw, err := setup(seed, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		w = nw
	}
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	fmt.Printf("host %s\n", hostRecord(runDir))
	fmt.Printf("setup_s %s\n", summarize(setups))

	var passes []*pass
	var tr *tracer
	if traced {
		// The untraced half is the reference the tracing overhead is
		// measured against; the traced half yields the layer metrics.
		p, err := w.run(d/2, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		tr = newTracer(now)
		p, err = w.run(d/2, tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	} else {
		p, err := w.run(d, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	last := passes[len(passes)-1]

	var layerVals map[string]float64
	if traced {
		var err error
		if layerVals, err = w.layers(tr, last); err != nil {
			return nil, err
		}
		untraced, traced := passes[0], last
		layerVals["bench.trace_overhead_pct"] = 100 * (cpuPerUnit(traced) - cpuPerUnit(untraced)) / cpuPerUnit(untraced)
		if err := tr.writeTSV(filepath.Join(outDir, "spans-"+name+".tsv")); err != nil {
			return nil, err
		}
	}
	checkErr := w.check()
	closeErr := w.close()
	w = nil
	if checkErr == nil && closeErr != nil {
		checkErr = closeErr
	}
	hw.stop()
	runMB, passMB, peakMB := hw.peakMB(last.start, last.start+int64(last.wall))

	res := &result{Correct: checkErr == nil, Metrics: map[string]metric{}}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	limitMS := float64(last.wall) / 1e6
	lat := summarize(last.latMS)
	vals := map[string]named{
		"setup_s":          {value: median(setups), n: len(setups)},
		"mem_peak_mb":      {value: peakMB, n: 1},
		"throughput_per_s": {value: last.rate, n: int(last.units)},
		"latency_p50_ms":   {value: finite(lat.P50, limitMS), n: last.latN},
		"cpu_ns_per_op":    {value: cpuPerUnit(last), n: int(last.units)},
	}
	var e2e []named
	for _, spec := range e2eMetrics {
		m := vals[spec.name]
		m.name, m.unit = spec.name, spec.unit
		e2e = append(e2e, m)
	}
	// The tails are printed, not gated: on a shared host they move with
	// the disk's fsync latency and the CPU other tenants take by more
	// than any bound a regression check could use.
	fmt.Printf("latency (ms) %s of %d; p90 %.4g p99 %.4g\n",
		lat, last.latN, finite(percentileOr(last.latMS, 90), limitMS), finite(percentileOr(last.latMS, 99), limitMS))
	fmt.Printf("heap: peak live %.4g MB over the run, %.4g MB over the pass, p%d one-second peak %.4g MB\n", runMB, passMB, secondPeakPct, peakMB)
	for _, m := range append(e2e, last.named...) {
		fmt.Printf("metric %-28s %14.6g %-6s (n=%d)\n", m.name, m.value, m.unit, m.n)
	}
	if traced {
		for _, lm := range layerMetrics {
			v := layerVals[lm.name]
			fmt.Printf("layer  %-38s %14.6g %s\n", lm.name, v, lm.unit)
			res.Metrics[lm.name] = metric{Value: v, Unit: lm.unit}
		}
	} else {
		for _, m := range e2e {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	if checkErr != nil {
		fmt.Printf("check FAILED: %v\n", checkErr)
	} else {
		fmt.Println("check ok")
	}
	return res, checkErr
}

// cpuPerUnit is the pass's process CPU time per work unit, in ns.
func cpuPerUnit(p *pass) float64 {
	if p.units == 0 {
		return math.Inf(1)
	}
	return float64(p.cpu.Nanoseconds()) / p.units
}

func median(xs []float64) float64 { return percentileOr(xs, 50) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// passClock brackets one pass: wall and CPU time.
type passClock struct {
	wall0 int64
	cpu0  time.Duration
}

func startPass() passClock { return passClock{wall0: now(), cpu0: cpuTime()} }

func (c passClock) finish(p *pass) {
	p.start = c.wall0
	p.wall = time.Duration(now() - c.wall0)
	p.cpu = cpuTime() - c.cpu0
}

// heapWatch samples the live Go heap (the bytes the last garbage
// collection marked live) every few milliseconds. The live heap, unlike
// the heap's total size, does not depend on where the collector's pacing
// happened to trigger a cycle.
type heapWatch struct {
	once    sync.Once
	quit    chan struct{}
	done    chan struct{}
	samples []heapSample // written by the sampler; read after stop
}

type heapSample struct {
	at    int64 // benchmark clock, ns
	bytes uint64
}

func newHeapWatch() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, heapSample{at: now(), bytes: s[0].Value.Uint64()})
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling.
func (h *heapWatch) stop() {
	h.once.Do(func() { close(h.quit) })
	<-h.done
}

// secondPeakPct is the percentile of the one-second peaks that
// mem_peak_mb reports: memory that grows in one second of a pass in ten
// or more raises it, whereas one collection that happened to land in a
// burst does not. The pass maximum depends on where collections fall
// and varies too much from run to run to gate (see README.md).
const secondPeakPct = 90

// peakMB returns, in MB (2^20 bytes), the peak live heap of the whole
// run, the peak over [from, to), and the secondPeakPct-th percentile over
// the one-second windows of [from, to) of each window's peak. Call it
// after stop.
func (h *heapWatch) peakMB(from, to int64) (run, pass, second float64) {
	var peaks []float64
	var top uint64
	bucket := int64(-1)
	for _, s := range h.samples {
		run = max(run, float64(s.bytes))
		if s.at < from || s.at >= to {
			continue
		}
		pass = max(pass, float64(s.bytes))
		if b := (s.at - from) / int64(time.Second); b != bucket {
			if bucket >= 0 {
				peaks = append(peaks, float64(top))
			}
			bucket, top = b, 0
		}
		top = max(top, s.bytes)
	}
	if bucket >= 0 {
		peaks = append(peaks, float64(top))
	}
	return run / (1 << 20), pass / (1 << 20), percentileOr(peaks, secondPeakPct) / (1 << 20)
}

// allocObjects is the process's cumulative count of heap allocations.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
