package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// claimChunk is how many consecutive flows a worker claims from the
// shared cursor at once: one atomic add per chunk instead of per flow
// keeps the cursor's cache line from bouncing between cores.
const claimChunk = 16

// TrafficEngine drives many flows through a shared Network concurrently
// — the software counterpart of the line-rate traffic generators data
// plane papers evaluate against. The paper's P4/FPGA prototype is
// validated at hardware rates; the emulator makes the same per-hop-cost
// argument in software by keeping the hop loop free of allocations and
// of writes to shared memory:
//
//   - each worker owns a sendScratch, so every in-flight packet has its
//     own backing arrays (the switch pipeline rewrites telemetry in
//     place via AppendHeader(p.Telemetry[:0]) — sharing a buffer across
//     packets would corrupt headers) and its own detector state;
//   - switch counters and link traversals accumulate in per-worker
//     dense arrays (per node, per link) that are added into the shared
//     atomic counters when a worker drains its batch, so counters are
//     exact — equal to a single-threaded run — once SendMany returns;
//   - the Controller remains the single shared sink, mutex-guarded.
//
// Workers claim flows from the batch claimChunk at a time through an
// atomic cursor, and results land at their flow's index, so the
// returned slice is in input order no matter how workers interleave.
type TrafficEngine struct {
	net     *Network
	workers int
}

// NewTrafficEngine returns an engine over n with the given worker count;
// workers <= 0 selects GOMAXPROCS.
func NewTrafficEngine(n *Network, workers int) *TrafficEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &TrafficEngine{net: n, workers: workers}
}

// Workers returns the engine's worker count.
func (e *TrafficEngine) Workers() int { return e.workers }

// Network returns the engine's underlying network.
func (e *TrafficEngine) Network() *Network { return e.net }

// SendMany injects every flow and returns one summary per flow, in
// input order. Flows are independent packets, so any interleaving is
// valid; because each journey is deterministic, the summaries and the
// post-return network counters are identical to a single-threaded run.
// The returned error is the first failure in flow order (later flows
// still ran); failed flows have a zero Final but their partial hops are
// still counted, exactly as a failed Send counts them.
func (e *TrafficEngine) SendMany(flows []Flow) ([]TraceSummary, error) {
	out := make([]TraceSummary, len(flows))
	errs := make([]error, len(flows))
	workers := e.workers
	if workers > len(flows) {
		workers = len(flows)
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &sendScratch{
				loads:  make([]uint64, len(e.net.links)),
				counts: make([]hopCounts, len(e.net.switches)),
			}
			for {
				lo := int(cursor.Add(claimChunk)) - claimChunk
				if lo >= len(flows) {
					break
				}
				for i := lo; i < min(lo+claimChunk, len(flows)); i++ {
					out[i], errs[i] = e.net.send(sc, flows[i], nil)
				}
			}
			e.net.mergeLoads(sc.loads)
			e.net.mergeCounts(sc.counts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
