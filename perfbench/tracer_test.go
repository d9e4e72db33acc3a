package main

import "testing"

func TestTracerSelfTimeSubtractsChildUnion(t *testing.T) {
	var clock int64
	tr := newTracer(func() int64 { return clock })
	at := func(c int64) { clock = c }

	at(100)
	root := tr.begin("epoch", -1)
	at(110)
	a := tr.begin("send", root)
	at(130)
	b := tr.begin("send", root) // overlaps a: concurrent workers
	at(140)
	tr.end(a)
	at(150)
	tr.end(b)
	at(170)
	c := tr.begin("drain", root)
	at(180)
	tr.end(c)
	at(200)
	tr.end(root)

	agg := tr.aggregate()
	// Children cover [110,150] and [170,180]: 50 of the root's 100 ns.
	if got := agg["epoch"]; got.totalN != 100 || got.selfN != 50 {
		t.Fatalf("epoch total=%d self=%d, want 100 and 50", got.totalN, got.selfN)
	}
	if got := agg["send"]; len(got.durMS) != 2 || got.totalN != 50 || got.selfN != 50 {
		t.Fatalf("send %+v", got)
	}
	var none *tracer
	id := none.begin("x", -1)
	none.end(id)
	if id != -1 || len(none.aggregate()) != 0 {
		t.Fatal("nil tracer is not a no-op")
	}
}
