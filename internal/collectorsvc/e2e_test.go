package collectorsvc

import (
	"testing"
	"time"

	"github.com/unroller/unroller/internal/dataplane"
	"github.com/unroller/unroller/internal/detect"
	"github.com/unroller/unroller/internal/scenario"
	"github.com/unroller/unroller/internal/xrand"
)

// microloopController mirrors the microloop scenario's controller
// configuration (internal/scenario): the collector's shards must share
// the in-process DedupWindow for the admission replay to be exact.
var microloopController = dataplane.ControllerConfig{
	MaxEvents: 1024, DedupWindow: 8, MaxAgeTicks: 4,
}

// TestCollectorEndToEnd is the acceptance test: a churn scenario
// streamed through collectord over loopback by 16 concurrent clients
// (partitioned by flow) must reproduce the in-process controller's
// admission totals exactly, with every frame accounted for.
//
// The scenario is quarantine-free on purpose: per-reporter quarantine
// is a per-shard property under flow sharding (one reporter's events
// scatter across shards), so exact equality is only promised for
// quarantine-free configurations — see DESIGN.md §8.
func TestCollectorEndToEnd(t *testing.T) {
	srv := NewServer(ServerConfig{
		Shards:     4,
		QueueDepth: 1 << 15, // deep enough that backpressure never drops
		Controller: microloopController,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	const numClients = 16
	clients := make([]*Client, numClients)
	for i := range clients {
		clients[i], err = NewClient(ClientConfig{
			Addr: addr.String(),
			ID:   uint64(i) + 1,
			Seed: uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Stream the scenario: the hook fires concurrently from 8 engine
	// workers; each flow's reports stay in hop order because one journey
	// runs on one worker and flow-partitioning pins it to one client.
	res, err := scenario.RunStreamed("microloop", 7, 8, func(ev dataplane.LoopEvent, hop int) {
		clients[int(ev.Flow)%numClients].Send(ev, hop)
	})
	if err != nil {
		t.Fatal(err)
	}

	var enqueued, acked, dropped uint64
	for i, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Enqueued != st.Acked+st.Dropped {
			t.Errorf("client %d: Enqueued %d != Acked %d + Dropped %d", i, st.Enqueued, st.Acked, st.Dropped)
		}
		enqueued += st.Enqueued
		acked += st.Acked
		dropped += st.Dropped
	}
	srv.Shutdown()

	want := res.Churn.Controller
	if enqueued != uint64(want.Delivered) {
		t.Errorf("clients enqueued %d reports, in-process controller delivered %d", enqueued, want.Delivered)
	}
	if dropped != 0 {
		t.Fatalf("clients dropped %d reports (buffers undersized for this test?)", dropped)
	}

	st := srv.Stats()
	if st.Ingested != acked {
		t.Errorf("server ingested %d, clients got %d acks", st.Ingested, acked)
	}
	if st.QueueDropped != 0 {
		t.Fatalf("server dropped %d from shard queues (depth undersized for this test?)", st.QueueDropped)
	}
	if st.BadFrames != 0 {
		t.Errorf("server counted %d bad frames on a clean stream", st.BadFrames)
	}

	// The acceptance criterion: same accepted/deduped/quarantined as the
	// in-process controller for the same (scenario, seed).
	got := srv.ControllerStats()
	if got.Accepted != want.Accepted || got.Deduped != want.Deduped || got.Quarantined != want.Quarantined {
		t.Errorf("admission totals diverged:\nstreamed  accepted=%d deduped=%d quarantined=%d\nin-process accepted=%d deduped=%d quarantined=%d",
			got.Accepted, got.Deduped, got.Quarantined, want.Accepted, want.Deduped, want.Quarantined)
	}
	if got.Delivered != got.Accepted+got.Deduped+got.Quarantined {
		t.Errorf("merged stats broke the delivery identity: %+v", got)
	}
	// Exact loss accounting, the other acceptance criterion:
	// sent = ingested + client-dropped + server-dropped.
	if enqueued != st.Ingested+dropped+st.QueueDropped {
		t.Errorf("loss accounting: enqueued %d != ingested %d + client-dropped %d + queue-dropped %d",
			enqueued, st.Ingested, dropped, st.QueueDropped)
	}
}

// TestCollectorSurvivesConnectionKills: every active connection is
// killed mid-stream — twice — and the reconnect/retransmit/sequence
// machinery still lands every report exactly once.
func TestCollectorSurvivesConnectionKills(t *testing.T) {
	srv := NewServer(ServerConfig{Shards: 3, QueueDepth: 1 << 14})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	const numClients = 4
	clients := make([]*Client, numClients)
	for i := range clients {
		clients[i], err = NewClient(ClientConfig{
			Addr:         addr.String(),
			ID:           100 + uint64(i),
			Seed:         uint64(i),
			MinBackoff:   time.Millisecond,
			MaxBackoff:   8 * time.Millisecond,
			FlushTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitActive := func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		for srv.Stats().ActiveConns < n {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d active connections (have %d)", n, srv.Stats().ActiveConns)
			}
			time.Sleep(time.Millisecond)
		}
	}

	const perClient = 600
	send := func(base int) {
		for i := 0; i < perClient; i++ {
			for ci, c := range clients {
				ev := dataplane.LoopEvent{
					Report: detect.Report{Reporter: detect.SwitchID(ci + 1), Hops: 3},
					Flow:   uint32(base + i*numClients + ci),
				}
				c.Send(ev, 3)
			}
		}
	}

	waitActive(numClients)
	send(0)
	srv.DisconnectAll()
	send(1 << 20)
	waitActive(numClients) // all reconnected
	srv.DisconnectAll()
	send(1 << 21)

	var enqueued, acked, dropped uint64
	for i, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Enqueued != st.Acked+st.Dropped {
			t.Errorf("client %d: Enqueued %d != Acked %d + Dropped %d", i, st.Enqueued, st.Acked, st.Dropped)
		}
		if st.Connects < 2 {
			t.Errorf("client %d: %d connects, expected a reconnect after the kill", i, st.Connects)
		}
		enqueued += st.Enqueued
		acked += st.Acked
		dropped += st.Dropped
	}
	srv.Shutdown()

	if want := uint64(3 * perClient * numClients); enqueued != want {
		t.Fatalf("enqueued %d, want %d", enqueued, want)
	}
	if dropped != 0 {
		t.Fatalf("clients dropped %d with the server up and a 30s drain budget", dropped)
	}
	st := srv.Stats()
	// Exactly-once: the kills force retransmissions (counted as Dupes
	// when the overlap arrives), but every unique report is ingested
	// once, and the full loss-accounting identity holds.
	if st.Ingested != acked {
		t.Errorf("server ingested %d, clients got %d acks", st.Ingested, acked)
	}
	if enqueued != st.Ingested+dropped+st.QueueDropped {
		t.Errorf("loss accounting: enqueued %d != ingested %d + client-dropped %d + queue-dropped %d",
			enqueued, st.Ingested, dropped, st.QueueDropped)
	}
	agg := srv.ControllerStats()
	if uint64(agg.Delivered)+st.QueueDropped != st.Ingested {
		t.Errorf("drain accounting: delivered %d + queue-dropped %d != ingested %d",
			agg.Delivered, st.QueueDropped, st.Ingested)
	}
}

// TestCollectorBackpressureDropsAreCounted: a one-slot shard queue with
// a stalled worker must shed load via drop-oldest and count every
// eviction, never blocking the reader.
func TestCollectorBackpressureDropsAreCounted(t *testing.T) {
	sh := newShard(dataplane.ControllerConfig{}, 4, maxShardFlows)
	// No worker goroutine: the queue can only shed by dropping.
	const n = 100
	for i := 0; i < n; i++ {
		sh.pushBatch([]shardItem{{ev: dataplane.LoopEvent{Flow: uint32(i)}}})
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.n != 4 {
		t.Errorf("queue holds %d, want 4", sh.n)
	}
	if sh.dropped != n-4 {
		t.Errorf("dropped %d, want %d", sh.dropped, n-4)
	}
	// The survivors are the newest four, in order.
	for i := 0; i < sh.n; i++ {
		got := sh.ring[(sh.head+i)%len(sh.ring)].ev.Flow
		if want := uint32(n - 4 + i); got != want {
			t.Errorf("slot %d: flow %d, want %d", i, got, want)
		}
	}
}

// TestShardFlowMapBoundCountsEvictions pins the bounded dedup map
// (DESIGN §8): when a report for a new flow finds the map at its bound,
// the map is cleared and the clear is counted. Eviction trades memory
// for duplicate admissions, never for loss — an evicted flow's next
// report may be accepted where an unbounded map would have deduped it,
// but every pushed report is still delivered.
func TestShardFlowMapBoundCountsEvictions(t *testing.T) {
	const (
		reports  = 2000
		flows    = 64
		maxFlows = 16
	)
	rng := xrand.New(11)
	items := make([]shardItem, reports)
	for i := range items {
		items[i] = shardItem{
			ev: dataplane.LoopEvent{
				Report: detect.Report{Reporter: detect.SwitchID(rng.Uint64n(4)), Hops: 2},
				Flow:   uint32(rng.Uint64n(flows)),
			},
			hop: 2, // every repeat of a (flow, reporter) pair is in-window
		}
	}
	// The eviction policy, replayed: clear on a new flow at the bound.
	var wantEvictions uint64
	seen := make(map[uint32]bool)
	for _, it := range items {
		if !seen[it.ev.Flow] {
			if len(seen) >= maxFlows {
				seen = make(map[uint32]bool)
				wantEvictions++
			}
			seen[it.ev.Flow] = true
		}
	}
	drain := func(maxFlows int) *shard {
		sh := newShard(dataplane.ControllerConfig{DedupWindow: 8}, reports, maxFlows)
		done := make(chan struct{})
		go func() { sh.run(); close(done) }()
		sh.pushBatch(items)
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
		sh.cond.Broadcast()
		<-done
		return sh
	}
	bounded, unbounded := drain(maxFlows), drain(reports)

	if got := bounded.evictions.Load(); got != wantEvictions || got == 0 {
		t.Errorf("flow evictions = %d, want %d (> 0)", got, wantEvictions)
	}
	if got := unbounded.evictions.Load(); got != 0 {
		t.Errorf("unbounded shard evicted %d times", got)
	}
	b, u := bounded.ctrl.Stats(), unbounded.ctrl.Stats()
	for name, st := range map[string]dataplane.ControllerStats{"bounded": b, "unbounded": u} {
		if st.Delivered != reports || st.Accepted+st.Deduped != st.Delivered {
			t.Errorf("%s: delivered %d (accepted %d + deduped %d), want all %d reports delivered",
				name, st.Delivered, st.Accepted, st.Deduped, reports)
		}
	}
	// Every (flow, reporter) pair is admitted once without eviction; the
	// bound re-admits pairs whose window it cleared.
	if b.Accepted <= u.Accepted {
		t.Errorf("bounded accepted %d, unbounded %d: eviction should re-admit deduped reports", b.Accepted, u.Accepted)
	}
}

// TestServerTickPropagation: a tick frame advances every shard's
// logical clock exactly once, and duplicate ticks (retransmits) do not.
func TestServerTickPropagation(t *testing.T) {
	srv := NewServer(ServerConfig{Shards: 3})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := NewClient(ClientConfig{Addr: addr.String(), ID: 9})
	if err != nil {
		t.Fatal(err)
	}
	c.Send(dataplane.LoopEvent{Report: detect.Report{Reporter: 1, Hops: 2}, Flow: 5}, 2)
	c.Tick()
	c.Tick()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()

	st := srv.Stats()
	if st.Ticks != 2 || st.Ingested != 1 {
		t.Fatalf("ticks=%d ingested=%d, want 2/1", st.Ticks, st.Ingested)
	}
	for i, cs := range srv.ShardStats() {
		if cs.Tick != 2 {
			t.Errorf("shard %d at tick %d, want 2", i, cs.Tick)
		}
	}
}
