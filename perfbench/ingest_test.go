package main

import (
	"math"
	"testing"
	"time"

	"github.com/unroller/unroller/internal/xrand"
)

// The replayed stream keeps the profile's shape: arrivals fall only in
// the ticks whose epoch raised reports, at the scaled mean rate.
func TestReportRatesFollowTheProfile(t *testing.T) {
	const mean = 100_000.0
	rates, peak, idle, err := reportRates([]float64{0, 4, 0, 0}, mean)
	if err != nil || peak != 4 || idle != 0.75 {
		t.Fatalf("peak %g, idle %g, err %v; want 4, 0.75, nil", peak, idle, err)
	}
	if want := 4 * mean / 1e9; math.Abs(rates[1]-want) > 1e-15 || rates[0] != 0 {
		t.Fatalf("rates %v; want tick 1 at %g/ns and the rest 0", rates, want)
	}
	w := &ingest{rates: rates, rng: xrand.New(7)}
	tick, cycle := int64(releaseTick), 4*int64(releaseTick)
	span := int64(400 * time.Millisecond)
	n := 0
	for at := w.nextArrival(0); at < span; at = w.nextArrival(at) {
		if at%cycle < tick || at%cycle >= 2*tick {
			t.Fatalf("arrival at %d ns falls in an idle tick", at)
		}
		n++
	}
	if want := mean * float64(span) / 1e9; math.Abs(float64(n)-want) > 0.03*want {
		t.Fatalf("%d arrivals in 400 ms, want about %g", n, want)
	}
	if _, _, _, err := reportRates([]float64{0, 0}, mean); err == nil {
		t.Fatal("a profile without reports was accepted")
	}
}
