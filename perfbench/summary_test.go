package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		tailPct float64
	}{
		{0, 0},
		{99, 0},
		{100, 90},
		{999, 90},
		{1000, 99},
		{10000, 99.9},
		{100000, 99.99},
		{1000000, 99.999},
	}
	for _, c := range cases {
		got := summarize(seq(c.n))
		if got.N != c.n || got.TailPct != c.tailPct {
			t.Errorf("n=%d: got N=%d tail p%g, want p%g", c.n, got.N, got.TailPct, c.tailPct)
		}
		if c.n > 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > got.Tail {
					beyond++
				}
			}
			if got.TailPct > 0 && beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g=%g", c.n, beyond, got.TailPct, got.Tail)
			}
		}
	}
}

func TestSummarizeMedianAndDrops(t *testing.T) {
	xs := seq(1000)
	got := summarize(xs)
	if got.P50 != 500.5 {
		t.Fatalf("median %g, want 500.5", got.P50)
	}
	// Twenty dropped items (+Inf) out of 1000 push p99 onto a drop: a
	// dropped item misses any latency limit.
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1)
	}
	got = summarize(xs)
	if got.TailPct != 99 || !math.IsInf(got.Tail, 1) {
		t.Fatalf("tail p%g=%g, want p99=+Inf", got.TailPct, got.Tail)
	}
	if finite(got.Tail, 1e4) != 1e4 || finite(3, 1e4) != 3 {
		t.Fatal("finite does not clamp +Inf to the limit")
	}
}

func TestHeapPeaks(t *testing.T) {
	const sec, mb = int64(time.Second), uint64(1 << 20)
	h := &heapWatch{samples: []heapSample{
		{at: 0, bytes: 50 * mb}, // set-up, before the pass
		{at: 10 * sec, bytes: 10 * mb}, {at: 10*sec + sec/2, bytes: 12 * mb},
		{at: 11 * sec, bytes: 11 * mb}, {at: 11*sec + sec/2, bytes: 30 * mb}, // one burst
		{at: 12 * sec, bytes: 13 * mb},
		{at: 13 * sec, bytes: 12 * mb},
		{at: 14 * sec, bytes: 40 * mb}, // after the pass
	}}
	run, pass, second := h.peakMB(10*sec, 14*sec)
	// The one-second peaks are 12, 30, 13 and 12; their p90 interpolates
	// between 13 and 30.
	if want := 13 + 0.7*(30-13); run != 50 || pass != 30 || math.Abs(second-want) > 1e-9 {
		t.Fatalf("run %g MB, pass %g MB, p90 second %g MB; want 50, 30 and %g", run, pass, second, want)
	}
}
