package dataplane

import (
	"sync"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/xrand"
)

// These tests pin the package's concurrency contract: a configured
// Network is safe for parallel Send, and W workers sending N packets
// each leave exactly the counters a single-threaded run leaves — switch
// stats, link loads, and controller counts alike. The CI gate runs them
// under -race.

// mixedFlows builds a deterministic batch mixing sources on and off the
// injected loop, with and without telemetry.
func mixedFlows(dst, count int, seed uint64) []Flow {
	rng := xrand.New(seed)
	flows := make([]Flow, count)
	for i := range flows {
		src := rng.Intn(16)
		for src == dst {
			src = rng.Intn(16)
		}
		flows[i] = Flow{
			Src:       src,
			Dst:       dst,
			ID:        uint32(i),
			TTL:       255,
			Telemetry: i%4 != 0, // every 4th packet is the blind counterfactual
		}
	}
	return flows
}

// netTotals sums every observable counter of a quiesced network.
func netTotals(n *Network) (stats SwitchStats, loads []uint64, reports int) {
	for node := 0; node < n.Graph.N(); node++ {
		s := n.Switch(node).Stats()
		stats.Received += s.Received
		stats.Forwarded += s.Forwarded
		stats.Delivered += s.Delivered
		stats.TTLDrops += s.TTLDrops
		stats.NoRoute += s.NoRoute
		stats.LoopHits += s.LoopHits
		stats.Reroutes += s.Reroutes
		stats.LinkDrops += s.LinkDrops
		stats.Restarts += s.Restarts
	}
	for _, l := range n.links {
		loads = append(loads, n.LinkLoad(l[0], l[1]))
	}
	return stats, loads, n.Controller.Count()
}

// TestParallelSendExactCounts: W goroutines calling Send directly on a
// shared network must leave exactly the single-threaded totals.
func TestParallelSendExactCounts(t *testing.T) {
	const workers = 8
	const perWorker = 16

	seqNet, _, dst := torusWithLoop(t, core.DefaultConfig(), 77)
	parNet, _, _ := torusWithLoop(t, core.DefaultConfig(), 77)
	flows := mixedFlows(dst, workers*perWorker, 0xC0C0)

	for _, f := range flows {
		if _, err := seqNet.Send(f.Src, f.Dst, f.ID, f.TTL, f.Telemetry); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(batch []Flow) {
			defer wg.Done()
			for _, f := range batch {
				if _, err := parNet.Send(f.Src, f.Dst, f.ID, f.TTL, f.Telemetry); err != nil {
					t.Error(err)
					return
				}
			}
		}(flows[w*perWorker : (w+1)*perWorker])
	}
	wg.Wait()

	wantStats, wantLoads, wantReports := netTotals(seqNet)
	gotStats, gotLoads, gotReports := netTotals(parNet)
	if gotStats != wantStats {
		t.Fatalf("switch stats diverge:\nparallel   %+v\nsequential %+v", gotStats, wantStats)
	}
	if gotReports != wantReports {
		t.Fatalf("controller counts diverge: parallel %d, sequential %d", gotReports, wantReports)
	}
	for i := range wantLoads {
		if gotLoads[i] != wantLoads[i] {
			l := parNet.links[i]
			t.Fatalf("link {%d,%d} load diverges: parallel %d, sequential %d", l[0], l[1], gotLoads[i], wantLoads[i])
		}
	}
	if parNet.TotalPacketHops() != seqNet.TotalPacketHops() {
		t.Fatal("total packet hops diverge")
	}
}

// TestTrafficEngineExactCounts: the batched engine path (per-worker
// scratch buffers, detector state, and load and counter accumulators)
// must match a single-threaded run summary for summary and counter for
// counter, at every worker count. Each input names the counters its
// serial run must exercise, so every SwitchStats field is compared
// non-trivially across the table.
func TestTrafficEngineExactCounts(t *testing.T) {
	ttlCfg := core.DefaultConfig()
	ttlCfg.TTLHopCount = true
	const dst = 15 // torusWithLoop's destination
	cases := []struct {
		name      string
		cfg       core.Config
		setup     func(*Network) error
		exercises func(SwitchStats) bool
	}{
		{"reroute", core.DefaultConfig(), nil,
			func(s SwitchStats) bool { return s.Reroutes > 0 && s.LoopHits > 0 && s.TTLDrops > 0 }},
		{"drop", core.DefaultConfig(),
			func(n *Network) error { n.SetLoopPolicy(ActionDrop); return nil },
			func(s SwitchStats) bool { return s.LoopHits > 0 && s.Reroutes == 0 }},
		{"collect", core.DefaultConfig(),
			func(n *Network) error { n.SetLoopPolicy(ActionCollect); return nil },
			func(s SwitchStats) bool { return s.LoopHits > 0 && s.Reroutes == 0 }},
		{"ttl-hop-count", ttlCfg, nil,
			func(s SwitchStats) bool { return s.LoopHits > 0 && s.Delivered > 0 }},
		{"link-down", core.DefaultConfig(),
			func(n *Network) error { return n.SetLink(14, dst, false) },
			func(s SwitchStats) bool { return s.LinkDrops > 0 }},
		{"no-route", core.DefaultConfig(),
			func(n *Network) error { n.Switch(11).ClearRoute(n.Assign.ID(dst)); return nil },
			func(s SwitchStats) bool { return s.NoRoute > 0 }},
	}
	flows := mixedFlows(dst, 96, 0xD0D0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Network {
				n, _, _ := torusWithLoop(t, tc.cfg, 78)
				if tc.setup != nil {
					if err := tc.setup(n); err != nil {
						t.Fatal(err)
					}
				}
				return n
			}
			seqNet := build()
			want := make([]TraceSummary, len(flows))
			for i, f := range flows {
				var err error
				if want[i], err = seqNet.SendFlow(f); err != nil {
					t.Fatal(err)
				}
			}
			wantStats, wantLoads, wantReports := netTotals(seqNet)
			if !tc.exercises(wantStats) {
				t.Fatalf("serial run does not exercise the case: %+v", wantStats)
			}

			for _, workers := range []int{1, 2, 8} {
				parNet := build()
				got, err := NewTrafficEngine(parNet, workers).SendMany(flows)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: summary %d diverges:\nengine     %+v\nsequential %+v", workers, i, got[i], want[i])
					}
				}
				gotStats, gotLoads, gotReports := netTotals(parNet)
				if gotStats != wantStats {
					t.Fatalf("workers=%d: switch stats diverge:\nengine     %+v\nsequential %+v", workers, gotStats, wantStats)
				}
				if gotReports != wantReports {
					t.Fatalf("workers=%d: controller counts diverge: %d vs %d", workers, gotReports, wantReports)
				}
				for i := range wantLoads {
					if gotLoads[i] != wantLoads[i] {
						l := parNet.links[i]
						t.Fatalf("workers=%d: link {%d,%d} load diverges: %d vs %d", workers, l[0], l[1], gotLoads[i], wantLoads[i])
					}
				}
			}
		})
	}
}

// TestParallelSendAndEngineInterleaved: raw Send calls racing an engine
// batch on the same network still account every traversal exactly.
func TestParallelSendAndEngineInterleaved(t *testing.T) {
	seqNet, _, dst := torusWithLoop(t, core.DefaultConfig(), 79)
	parNet, _, _ := torusWithLoop(t, core.DefaultConfig(), 79)
	engineFlows := mixedFlows(dst, 48, 0xE0E0)
	rawFlows := mixedFlows(dst, 24, 0xE1E1)

	for _, f := range append(append([]Flow(nil), engineFlows...), rawFlows...) {
		if _, err := seqNet.SendFlow(f); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := NewTrafficEngine(parNet, 4).SendMany(engineFlows); err != nil {
			t.Error(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, f := range rawFlows {
			if _, err := parNet.Send(f.Src, f.Dst, f.ID, f.TTL, f.Telemetry); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	wantStats, _, wantReports := netTotals(seqNet)
	gotStats, _, gotReports := netTotals(parNet)
	if gotStats != wantStats {
		t.Fatalf("switch stats diverge:\ninterleaved %+v\nsequential  %+v", gotStats, wantStats)
	}
	if gotReports != wantReports {
		t.Fatalf("controller counts diverge: %d vs %d", gotReports, wantReports)
	}
	if parNet.TotalPacketHops() != seqNet.TotalPacketHops() {
		t.Fatalf("total packet hops diverge: %d vs %d", parNet.TotalPacketHops(), seqNet.TotalPacketHops())
	}
}
