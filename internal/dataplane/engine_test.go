package dataplane

import (
	"strings"
	"testing"

	"github.com/unroller/unroller/internal/core"
)

// TestTrafficEngineResultOrder: summaries land at their flow's index
// regardless of worker interleaving, and echo the flow's identity.
func TestTrafficEngineResultOrder(t *testing.T) {
	n, _, dst := torusWithLoop(t, core.DefaultConfig(), 91)
	flows := mixedFlows(dst, 40, 0xAB)
	got, err := NewTrafficEngine(n, 7).SendMany(flows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(flows) {
		t.Fatalf("%d summaries for %d flows", len(got), len(flows))
	}
	for i, s := range got {
		if s.Flow != flows[i].ID || s.Src != flows[i].Src || s.Dst != flows[i].Dst {
			t.Fatalf("summary %d does not echo its flow: %+v vs %+v", i, s, flows[i])
		}
		if s.Hops == 0 {
			t.Fatalf("summary %d recorded no hops", i)
		}
	}
}

// TestTrafficEngineDefaults: worker selection and accessors.
func TestTrafficEngineDefaults(t *testing.T) {
	n, _, _ := torusWithLoop(t, core.DefaultConfig(), 92)
	if e := NewTrafficEngine(n, 0); e.Workers() < 1 {
		t.Fatalf("default worker count %d", e.Workers())
	}
	e := NewTrafficEngine(n, 3)
	if e.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", e.Workers())
	}
	if e.Network() != n {
		t.Fatal("Network() lost the network")
	}
	// Empty batches are a no-op, not a hang.
	out, err := e.SendMany(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d summaries", err, len(out))
	}
}

// TestTrafficEngineErrorPropagation: a failing flow surfaces the
// first-in-order error while the rest of the batch still runs.
func TestTrafficEngineErrorPropagation(t *testing.T) {
	n, _, dst := torusWithLoop(t, core.DefaultConfig(), 93)
	flows := mixedFlows(dst, 10, 0xCD)
	flows[3].Src = -1 // out of range: send must reject it
	flows[7].Src = 99
	got, err := NewTrafficEngine(n, 4).SendMany(flows)
	if err == nil {
		t.Fatal("invalid flow accepted")
	}
	if !strings.Contains(err.Error(), "(-1,") && !strings.Contains(err.Error(), "(-1, ") {
		t.Fatalf("error is not the first-in-order failure (flow 3, src -1): %v", err)
	}
	for i, s := range got {
		if i == 3 || i == 7 {
			continue
		}
		if s.Hops == 0 {
			t.Fatalf("valid flow %d did not run after the failure", i)
		}
	}
}

// TestSendFlowMatchesSend: the summary path and the traced path agree on
// every derived quantity.
func TestSendFlowMatchesSend(t *testing.T) {
	nA, _, dst := torusWithLoop(t, core.DefaultConfig(), 94)
	nB, _, _ := torusWithLoop(t, core.DefaultConfig(), 94)
	for _, f := range mixedFlows(dst, 20, 0xEF) {
		sum, err := nA.SendFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := nB.Send(f.Src, f.Dst, f.ID, f.TTL, f.Telemetry)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Final != tr.Final || sum.Hops != len(tr.Hops) || sum.Rerouted != tr.Rerouted {
			t.Fatalf("flow %d: summary %+v vs trace final=%v hops=%d rerouted=%v", f.ID, sum, tr.Final, len(tr.Hops), tr.Rerouted)
		}
		if (tr.Report != nil) != (sum.Reports > 0) {
			t.Fatalf("flow %d: report presence diverges", f.ID)
		}
		if tr.Report != nil && sum.Reporter != tr.Report.Reporter {
			t.Fatalf("flow %d: reporter %v vs %v", f.ID, sum.Reporter, tr.Report.Reporter)
		}
	}
}

// TestHopLoopAllocationFree: once a scratch is warm, a telemetry flow's
// whole journey allocates nothing — with an engine worker's per-node
// counters and per-link loads, and with the per-hop folds Send and
// SendFlow use. The empty header is copied from the network's cached
// encoding and every hop decodes into the scratch's one detector state.
func TestHopLoopAllocationFree(t *testing.T) {
	n, _, dst := torusWithLoop(t, core.DefaultConfig(), 80)
	f := Flow{Src: 0, Dst: dst, ID: 1, TTL: InitialTTL, Telemetry: true}
	for _, sc := range []*sendScratch{
		{loads: make([]uint64, len(n.links)), counts: make([]hopCounts, len(n.switches))},
		{},
	} {
		journey := func() {
			sum, err := n.send(sc, f, nil)
			if err != nil || sum.Final != Deliver || sum.Hops < 2 {
				t.Fatalf("journey: %+v, %v", sum, err)
			}
		}
		journey() // warm the wire buffers and the state
		if allocs := testing.AllocsPerRun(100, journey); allocs != 0 {
			t.Fatalf("engine=%v: %.2f allocations per journey", sc.counts != nil, allocs)
		}
	}
}
