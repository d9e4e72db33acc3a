package main

import (
	"fmt"
	"math"

	"github.com/unroller/unroller/internal/stats"
	"github.com/unroller/unroller/internal/xrand"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.999, 99.99, 99.9, 99, 90}

// timing summarises a set of latency samples the way the benchmark
// reports every timing: the median, plus the highest percentile that
// still has at least ten samples beyond it, with the sample count. A
// percentile with fewer than ten samples above it is one or two outliers,
// not a tail, so it is never reported.
type timing struct {
	N       int
	P50     float64
	TailPct float64 // 0 when fewer than 100 samples support any tail
	Tail    float64
}

// summarize computes the timing summary of xs. +Inf samples (work that
// never completed) sort above every finite sample, so they count as
// missing any latency limit.
func summarize(xs []float64) timing {
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	t.P50 = stats.Percentile(xs, 50)
	for _, p := range tailPercentiles {
		if float64(len(xs))*(100-p)/100 >= 10-1e-9 { // tolerate 100-99.9 rounding
			t.TailPct = p
			t.Tail = stats.Percentile(xs, p)
			break
		}
	}
	return t
}

// String renders the summary with its sample count.
func (t timing) String() string {
	if t.N == 0 {
		return "n=0"
	}
	if t.TailPct == 0 {
		return fmt.Sprintf("p50=%.4g (n=%d, too few samples for a tail)", t.P50, t.N)
	}
	return fmt.Sprintf("p50=%.4g p%g=%.4g (n=%d)", t.P50, t.TailPct, t.Tail, t.N)
}

// percentileOr returns the p-th percentile of xs, or 0 for no samples.
func percentileOr(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// finite clamps +Inf (a dropped item's latency) to limit, so that a
// percentile landing on a drop still prints as a number: the limit is
// the pass length, which any latency bound a reader would set is below.
func finite(x, limit float64) float64 {
	if math.IsInf(x, 1) || x > limit {
		return limit
	}
	return x
}

// reservoirCap bounds the samples a reservoir keeps: enough for a p99.99
// with 26 samples beyond it, and a fixed 2 MiB whatever the run length,
// so the benchmark's own memory does not grow with the work measured.
const reservoirCap = 1 << 18

// reservoir keeps a uniform random sample of at most reservoirCap values
// (Vitter's algorithm R), with a seeded generator so a run's sample is
// reproducible. Not safe for concurrent use.
type reservoir struct {
	xs  []float64
	n   int
	rng *xrand.Rand
}

func newReservoir(seed uint64) *reservoir {
	return &reservoir{xs: make([]float64, 0, reservoirCap), rng: xrand.New(seed)}
}

func (r *reservoir) add(x float64) {
	r.n++
	if len(r.xs) < reservoirCap {
		r.xs = append(r.xs, x)
		return
	}
	if i := r.rng.Intn(r.n); i < reservoirCap {
		r.xs[i] = x
	}
}

// reset empties the reservoir, keeping its storage.
func (r *reservoir) reset() { r.xs, r.n = r.xs[:0], 0 }

// values returns a copy of the kept samples.
func (r *reservoir) values() []float64 { return append([]float64(nil), r.xs...) }
