package dataplane

import (
	"testing"

	"github.com/unroller/unroller/internal/detect"
)

// TestControllerBoundedUnderMillionFlowChurn: a million delivered events
// — the flood a looping million-flow batch could raise — leaves the
// controller holding at most MaxEvents buffered events, with every
// suppressed or displaced event accounted for, never silently lost.
func TestControllerBoundedUnderMillionFlowChurn(t *testing.T) {
	const (
		maxEvents = 1024
		total     = 1 << 20
	)
	c := NewControllerWithConfig(ControllerConfig{MaxEvents: maxEvents, MaxAgeTicks: 2})
	for i := 0; i < total; i++ {
		ev := LoopEvent{Node: i % 64, Flow: uint32(i)}
		ev.Reporter = detect.SwitchID(i % 64)
		ev.Hops = i % 40
		deliverFresh(c, ev)
		if i%131072 == 0 {
			c.Tick()
		}
	}
	st := c.Stats()
	if st.Delivered != total || st.Accepted != total {
		t.Fatalf("delivered=%d accepted=%d, want %d each", st.Delivered, st.Accepted, total)
	}
	if st.Buffered > maxEvents {
		t.Fatalf("buffered %d exceeds MaxEvents %d", st.Buffered, maxEvents)
	}
	if got := len(c.Events()); got != st.Buffered {
		t.Fatalf("Events() returned %d, stats say %d buffered", got, st.Buffered)
	}
	if st.Accepted != uint64(st.Buffered)+st.Evicted+st.Aged {
		t.Fatalf("accepted != buffered+evicted+aged: %+v", st)
	}
	if st.Evicted == 0 {
		t.Fatal("a full ring under churn must evict")
	}
}

// TestControllerDedupWindow: repeat reports from the same reporter
// within the window are counted as deduped, the anchor holds until the
// window passes, and distinct reporters never dedup against each other.
func TestControllerDedupWindow(t *testing.T) {
	c := NewControllerWithConfig(ControllerConfig{DedupWindow: 10})
	var w DedupWindow
	w.Reset()
	ev := func(rep detect.SwitchID) LoopEvent {
		e := LoopEvent{Flow: 1}
		e.Reporter = rep
		return e
	}
	if !c.DeliverFlow(ev(1), &w, 5) {
		t.Fatal("first report must be accepted")
	}
	if c.DeliverFlow(ev(1), &w, 8) {
		t.Fatal("repeat within window must dedup")
	}
	if c.DeliverFlow(ev(1), &w, 14) {
		t.Fatal("anchor is the accepted report at hop 5; hop 14 is still inside its window")
	}
	if !c.DeliverFlow(ev(1), &w, 15) {
		t.Fatal("hop 15 is past the window; must be accepted")
	}
	if !c.DeliverFlow(ev(2), &w, 16) {
		t.Fatal("a different reporter never dedups against reporter 1")
	}
	st := c.Stats()
	if st.Accepted != 3 || st.Deduped != 2 || st.Delivered != 5 {
		t.Fatalf("accepted=%d deduped=%d delivered=%d, want 3/2/5", st.Accepted, st.Deduped, st.Delivered)
	}
}

// TestControllerDedupWindowOverflow: the fixed 8-entry window forgets
// its stalest anchor under pressure from many distinct reporters — a
// bounded-memory design that errs towards re-accepting, never towards
// suppressing a fresh reporter.
func TestControllerDedupWindowOverflow(t *testing.T) {
	c := NewControllerWithConfig(ControllerConfig{DedupWindow: 100})
	var w DedupWindow
	w.Reset()
	for i := 0; i < dedupEntries+1; i++ {
		e := LoopEvent{}
		e.Reporter = detect.SwitchID(i + 1)
		if !c.DeliverFlow(e, &w, i+1) {
			t.Fatalf("distinct reporter %d must be accepted", i+1)
		}
	}
	// Reporter 1's anchor (hop 1, the stalest) was overwritten, so its
	// repeat inside the nominal window is accepted again.
	e := LoopEvent{}
	e.Reporter = 1
	if !c.DeliverFlow(e, &w, 50) {
		t.Fatal("evicted anchor must not suppress its reporter")
	}
}

// TestControllerQuarantine: a reporter that trips the per-window accept
// cap is muted for the remainder of the window plus QuarantineTicks;
// windows roll over at Tick.
func TestControllerQuarantine(t *testing.T) {
	c := NewControllerWithConfig(ControllerConfig{QuarantineAfter: 2, QuarantineTicks: 1})
	ev := func() LoopEvent {
		e := LoopEvent{}
		e.Reporter = 7
		return e
	}
	for i := 0; i < 5; i++ {
		deliverFresh(c, ev())
	}
	st := c.Stats()
	if st.Accepted != 2 || st.Quarantined != 3 {
		t.Fatalf("tick 0: accepted=%d quarantined=%d, want 2/3", st.Accepted, st.Quarantined)
	}
	// Tick 1 is still inside the mute (rest of window + 1 extra tick).
	c.Tick()
	deliverFresh(c, ev())
	if st = c.Stats(); st.Accepted != 2 || st.Quarantined != 4 {
		t.Fatalf("tick 1: accepted=%d quarantined=%d, want 2/4", st.Accepted, st.Quarantined)
	}
	// Tick 2: the mute expired, the window is fresh.
	c.Tick()
	deliverFresh(c, ev())
	if st = c.Stats(); st.Accepted != 3 || st.Quarantined != 4 {
		t.Fatalf("tick 2: accepted=%d quarantined=%d, want 3/4", st.Accepted, st.Quarantined)
	}
	// An innocent reporter is never caught in 7's quarantine.
	e := LoopEvent{}
	e.Reporter = 8
	deliverFresh(c, e)
	if st = c.Stats(); st.Accepted != 4 {
		t.Fatalf("innocent reporter suppressed: %+v", st)
	}
}

// TestControllerAging: buffered events older than MaxAgeTicks are aged
// out at Tick, and only then.
func TestControllerAging(t *testing.T) {
	c := NewControllerWithConfig(ControllerConfig{MaxEvents: 16, MaxAgeTicks: 1})
	for i := 0; i < 4; i++ {
		e := LoopEvent{Flow: uint32(i)}
		e.Reporter = detect.SwitchID(i)
		deliverFresh(c, e)
	}
	c.Tick() // age 1: still within MaxAgeTicks
	if st := c.Stats(); st.Buffered != 4 || st.Aged != 0 {
		t.Fatalf("after 1 tick: %+v, want 4 buffered, 0 aged", st)
	}
	e := LoopEvent{Flow: 99}
	e.Reporter = 9
	deliverFresh(c, e) // stamped at tick 1
	c.Tick()           // tick 2: the first four (age 2) expire, the fifth (age 1) stays
	st := c.Stats()
	if st.Buffered != 1 || st.Aged != 4 {
		t.Fatalf("after 2 ticks: %+v, want 1 buffered, 4 aged", st)
	}
	evs := c.Events()
	if len(evs) != 1 || evs[0].Flow != 99 {
		t.Fatalf("survivor should be the tick-1 event, got %v", evs)
	}
	if st.Accepted != uint64(st.Buffered)+st.Evicted+st.Aged {
		t.Fatalf("accounting broken: %+v", st)
	}
}

// TestControllerEvictionOrder: a full ring drops oldest-first and
// Events stays in arrival order.
func TestControllerEvictionOrder(t *testing.T) {
	c := NewControllerWithConfig(ControllerConfig{MaxEvents: 4})
	for i := 0; i < 6; i++ {
		e := LoopEvent{Flow: uint32(i)}
		e.Reporter = detect.SwitchID(i)
		deliverFresh(c, e)
	}
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("buffered %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Flow != uint32(i+2) {
			t.Fatalf("Events()[%d].Flow = %d, want %d (oldest evicted first)", i, e.Flow, i+2)
		}
	}
	if st := c.Stats(); st.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", st.Evicted)
	}
}

// TestControllerResetKeepsConfig: Reset clears state and clock but the
// hardening knobs survive.
func TestControllerResetKeepsConfig(t *testing.T) {
	cfg := ControllerConfig{MaxEvents: 8, DedupWindow: 3, QuarantineAfter: 1, QuarantineTicks: 2, MaxAgeTicks: 4}
	c := NewControllerWithConfig(cfg)
	for i := 0; i < 5; i++ {
		e := LoopEvent{}
		e.Reporter = 1
		deliverFresh(c, e)
	}
	c.Tick()
	c.Reset()
	st := c.Stats()
	if st.Delivered != 0 || st.Accepted != 0 || st.Quarantined != 0 || st.Buffered != 0 || st.Tick != 0 {
		t.Fatalf("Reset left state behind: %+v", st)
	}
	if got := c.Config(); got != cfg {
		t.Fatalf("Reset changed config: %+v", got)
	}
	if len(c.TopReporters()) != 0 {
		t.Fatal("Reset left reporter totals behind")
	}
}

// TestControllerStatsString pins the event-log stats line format.
func TestControllerStatsString(t *testing.T) {
	s := ControllerStats{Delivered: 10, Accepted: 6, Deduped: 3, Quarantined: 1, Evicted: 2, Aged: 1, Buffered: 3}
	want := "delivered=10 accepted=6 deduped=3 quarantined=1 evicted=2 aged=1 buffered=3"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
