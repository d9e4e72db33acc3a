package dataplane

import (
	"sync"
	"testing"

	"github.com/unroller/unroller/internal/detect"
)

// deliverFresh delivers ev with a fresh dedup window: no flow history,
// so only quarantine and the ring bound decide — the decisions the
// controller makes for a report without flow context.
func deliverFresh(c *Controller, ev LoopEvent) bool {
	return c.DeliverFlow(ev, &DedupWindow{}, 0)
}

// TestControllerConcurrentDelivery exercises the controller's documented
// thread-safety: parallel benchmarks share one sink, so concurrent
// DeliverFlow/Count/Events/TopReporters must be race-free (the CI gate runs
// this under -race) and lose no reports.
func TestControllerConcurrentDelivery(t *testing.T) {
	c := NewController()
	const goroutines = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				deliverFresh(c, LoopEvent{Report: detect.Report{Reporter: detect.SwitchID(worker), Hops: i}, Node: worker})
				// Interleave reads with writes to give the race detector
				// something to catch if the locking regresses.
				if i%50 == 0 {
					_ = c.Count()
					_ = c.Events()
					_ = c.TopReporters()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Count(); got != goroutines*perWorker {
		t.Fatalf("Count = %d, want %d (reports lost under concurrency)", got, goroutines*perWorker)
	}
}

// TestControllerTopReportersOrdering pins the ranking contract: by
// report count descending, ties broken by ascending switch ID so the
// ordering is deterministic.
func TestControllerTopReportersOrdering(t *testing.T) {
	c := NewController()
	deliver := func(id detect.SwitchID, n int) {
		for i := 0; i < n; i++ {
			deliverFresh(c, LoopEvent{Report: detect.Report{Reporter: id, Hops: i}, Node: 0})
		}
	}
	deliver(detect.SwitchID(3), 1)
	deliver(detect.SwitchID(1), 5)
	deliver(detect.SwitchID(7), 5)
	deliver(detect.SwitchID(2), 2)

	got := c.TopReporters()
	want := []detect.SwitchID{1, 7, 2, 3} // 5,5 tie → lower ID first
	if len(got) != len(want) {
		t.Fatalf("TopReporters = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopReporters = %v, want %v", got, want)
		}
	}
}

// TestControllerCopySemantics pins that Events and Memberships return
// copies: a caller mutating a returned slice must not corrupt the log.
func TestControllerCopySemantics(t *testing.T) {
	c := NewController()
	deliverFresh(c, LoopEvent{
		Report:  detect.Report{Reporter: detect.SwitchID(9), Hops: 4},
		Node:    2,
		Members: []detect.SwitchID{9, 10, 11},
	})
	deliverFresh(c, LoopEvent{Report: detect.Report{Reporter: detect.SwitchID(1), Hops: 1}, Node: 0})

	ms := c.Memberships()
	if len(ms) != 1 || len(ms[0]) != 3 {
		t.Fatalf("Memberships = %v, want one 3-member loop", ms)
	}
	ms[0][0] = detect.SwitchID(0xFFFF)
	if again := c.Memberships(); again[0][0] != detect.SwitchID(9) {
		t.Fatal("Memberships returns aliased member slices")
	}

	evs := c.Events()
	if len(evs) != 2 {
		t.Fatalf("Events = %d entries, want 2", len(evs))
	}
	evs[0].Node = 77
	if c.Events()[0].Node != 2 {
		t.Fatal("Events returns an aliased log slice")
	}
}

// TestControllerReset pins that Reset clears every view of the log.
func TestControllerReset(t *testing.T) {
	c := NewController()
	deliverFresh(c, LoopEvent{Report: detect.Report{Reporter: detect.SwitchID(5), Hops: 3}, Node: 1})
	c.Reset()
	if c.Count() != 0 || len(c.Events()) != 0 || len(c.TopReporters()) != 0 || len(c.Memberships()) != 0 {
		t.Fatal("Reset left state behind")
	}
}
