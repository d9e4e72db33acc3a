package dataplane

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/topology"
	"github.com/unroller/unroller/internal/xrand"
)

// buildChurn constructs a deterministic churn workload from seed: a 4x4
// torus with full shortest-path FIBs and a persistent loop, a plan that
// cuts a link, reboots a loop member, restores it from a stale snapshot
// under a corruption storm, then heals everything, and five epochs of
// seeded mixed traffic. Two calls with the same seed produce networks,
// plans, and flow lists that are bit-for-bit identical.
func buildChurn(t *testing.T, seed uint64) (*Network, *FaultPlan, []ChurnEpoch) {
	t.Helper()
	g, err := topology.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(g, topology.NewAssignment(g, xrand.New(seed)), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.Controller = NewControllerWithConfig(ControllerConfig{
		MaxEvents: 128, DedupWindow: 8, QuarantineAfter: 4, QuarantineTicks: 1, MaxAgeTicks: 2,
	})
	for dst := 0; dst < g.N(); dst++ {
		if err := n.InstallShortestPaths(dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.InjectLoop(15, topology.Cycle{5, 6, 10, 9}); err != nil {
		t.Fatal(err)
	}
	n.SetLoopPolicy(ActionDrop)
	stale := routesAsUpdates(n, 6)

	plan := &FaultPlan{}
	plan.LinkDownAt(1, 0, 1)
	plan.RestartAt(2, 6)
	plan.RoutesAt(3, stale)
	plan.CorruptionAt(3, 0.2, seed^77)
	plan.LinkUpAt(4, 0, 1)
	plan.CorruptionAt(4, 0, 0)

	rng := xrand.New(seed ^ 0xF10)
	var epochs []ChurnEpoch
	id := uint32(0)
	for e := 0; e < 5; e++ {
		var flows []Flow
		for i := 0; i < 60; i++ {
			f := Flow{ID: id, TTL: InitialTTL, Telemetry: true}
			id++
			if i%3 == 0 {
				// Steer a third of the traffic into the loop.
				f.Src, f.Dst = 5, 15
			} else {
				f.Src = rng.Intn(g.N())
				f.Dst = rng.Intn(g.N() - 1)
				if f.Dst >= f.Src {
					f.Dst++
				}
			}
			flows = append(flows, f)
		}
		epochs = append(epochs, ChurnEpoch{Flows: flows})
	}
	return n, plan, epochs
}

// TestRunChurnWorkerInvariance: the full churn result — event log,
// per-epoch aggregates, disposition table, controller admission stats,
// link loads — is identical at 1, 4, and 16 workers while faults fire
// between every epoch. This is the determinism contract of the whole
// fault subsystem: quiesced shared-state mutation plus pure per-hop
// corruption leaves nothing for scheduling to perturb.
func TestRunChurnWorkerInvariance(t *testing.T) {
	const seed = 31
	netBase, plan, epochs := buildChurn(t, seed)
	base, err := RunChurn(NewTrafficEngine(netBase, 1), plan, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Reports == 0 {
		t.Fatal("workload produced no loop reports; invariance test is vacuous")
	}
	if base.Dispositions[DropLink] == 0 || base.Dispositions[DropCorrupt] == 0 || base.Dispositions[DropNoRoute] == 0 {
		t.Fatalf("workload must exercise link, corruption, and restart drops: %v", base.Dispositions)
	}
	for _, workers := range []int{4, 16} {
		net, plan, epochs := buildChurn(t, seed)
		res, err := RunChurn(NewTrafficEngine(net, workers), plan, epochs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("workers=%d: churn result diverged\n base: %+v\n got:  %+v", workers, base, res)
		}
		if got, want := net.TotalPacketHops(), netBase.TotalPacketHops(); got != want {
			t.Errorf("workers=%d: total packet hops %d, want %d", workers, got, want)
		}
		if got, want := net.Controller.TopReporters(), netBase.Controller.TopReporters(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: top reporters %v, want %v", workers, got, want)
		}
	}
}

// TestRunChurnReplaysFromSeed: the same seed replays the identical run;
// a different seed produces a different one (the log embeds the flows'
// fates, so identical logs across seeds would mean the seed is dead).
func TestRunChurnReplaysFromSeed(t *testing.T) {
	run := func(seed uint64) *ChurnResult {
		net, plan, epochs := buildChurn(t, seed)
		res, err := RunChurn(NewTrafficEngine(net, 8), plan, epochs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(99), run(99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed did not replay the identical churn result")
	}
	c := run(100)
	if reflect.DeepEqual(a.PerEpoch, c.PerEpoch) {
		t.Fatal("different seeds produced identical per-epoch results")
	}
}

// TestChurnConcurrentReaders races the controller's read API —
// Events, Stats, Count, Memberships, TopReporters — against a full
// churn run with faults firing, then checks the final accounting
// invariants. The readers assert only internally-consistent snapshots;
// the race detector (ci.sh runs this suite under -race) does the rest.
func TestChurnConcurrentReaders(t *testing.T) {
	net, plan, epochs := buildChurn(t, 47)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := net.Controller.Stats()
				if st.Delivered != st.Accepted+st.Deduped+st.Quarantined {
					t.Errorf("stats snapshot inconsistent: %+v", st)
					return
				}
				if got := len(net.Controller.Events()); got > 128 {
					t.Errorf("events snapshot exceeds MaxEvents: %d", got)
					return
				}
				net.Controller.Count()
				net.Controller.Memberships()
				net.Controller.TopReporters()
			}
		}()
	}
	res, err := RunChurn(NewTrafficEngine(net, 8), plan, epochs)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st := res.Controller
	if st.Delivered != st.Accepted+st.Deduped+st.Quarantined {
		t.Fatalf("final stats violate delivered = accepted+deduped+quarantined: %+v", st)
	}
	if st.Accepted != uint64(st.Buffered)+st.Evicted+st.Aged {
		t.Fatalf("final stats violate accepted = buffered+evicted+aged: %+v", st)
	}
}

// TestControllerDeliverResetRace hammers DeliverFlow, with fresh and
// long-lived dedup windows, from many goroutines while others read
// Events/Stats and one repeatedly Resets — the worst-case interleaving
// for the mutex discipline. Correctness
// assertions are minimal (Reset wipes counters mid-flight); the test
// exists so the race detector can prove the locking sound.
func TestControllerDeliverResetRace(t *testing.T) {
	c := NewControllerWithConfig(ControllerConfig{
		MaxEvents: 64, DedupWindow: 4, QuarantineAfter: 3, QuarantineTicks: 1, MaxAgeTicks: 1,
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var d DedupWindow
			for i := 0; i < 5000; i++ {
				ev := LoopEvent{Node: w, Flow: uint32(i)}
				ev.Reporter = detect.SwitchID(w*7 + i%13)
				ev.Hops = i % 50
				if i%2 == 0 {
					deliverFresh(c, ev)
				} else {
					c.DeliverFlow(ev, &d, i)
				}
				if i%1000 == 0 {
					d.Reset()
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Events()
				st := c.Stats()
				if st.Delivered != st.Accepted+st.Deduped+st.Quarantined {
					t.Errorf("mid-flight stats inconsistent: %+v", st)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			c.Reset()
			c.Tick()
		}
		close(stop)
	}()
	wg.Wait()
	st := c.Stats()
	if st.Delivered != st.Accepted+st.Deduped+st.Quarantined {
		t.Fatalf("final stats inconsistent: %+v", st)
	}
}

// TestRunChurnFaultOnlyEpochs: a plan whose span exceeds the traffic
// schedule still fires its trailing events.
func TestRunChurnFaultOnlyEpochs(t *testing.T) {
	net, _, _ := buildChurn(t, 7)
	plan := &FaultPlan{}
	plan.LinkDownAt(0, 0, 1)
	plan.LinkUpAt(3, 0, 1)
	res, err := RunChurn(NewTrafficEngine(net, 2), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 4 {
		t.Fatalf("Epochs = %d, want 4 (plan span)", res.Epochs)
	}
	if res.Flows != 0 {
		t.Fatalf("Flows = %d, want 0", res.Flows)
	}
	if net.LinkIsUp(0, 1) != true {
		t.Fatal("trailing link-up event did not fire")
	}
	if res.Controller.Tick != 4 {
		t.Fatalf("controller ticked %d times, want 4", res.Controller.Tick)
	}
}

// TestRunChurnBadPlan: a fault referencing a missing link aborts with
// epoch context.
func TestRunChurnBadPlan(t *testing.T) {
	net, _, _ := buildChurn(t, 8)
	plan := &FaultPlan{}
	plan.LinkDownAt(0, 0, 5) // not a torus edge
	if _, err := RunChurn(NewTrafficEngine(net, 2), plan, nil); err == nil {
		t.Fatal("bad plan should abort the run")
	}
}

// TestChurnResultTable: the disposition table renders every disposition
// in declaration order, including zero rows.
func TestChurnResultTable(t *testing.T) {
	var r ChurnResult
	r.Dispositions[Deliver] = 3
	table := r.Table()
	for d := 0; d < NumDispositions; d++ {
		if !strings.Contains(table, Disposition(d).String()) {
			t.Errorf("table missing disposition %v:\n%s", Disposition(d), table)
		}
	}
}
