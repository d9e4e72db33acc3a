package dataplane

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/unroller/unroller/internal/core"
	"github.com/unroller/unroller/internal/detect"
)

// PortID indexes a switch's ports (its position in the adjacency list).
type PortID int

// Disposition is the pipeline's decision for a packet.
type Disposition uint8

const (
	// Forward sends the packet out of Egress.
	Forward Disposition = iota
	// Deliver terminates the packet at this switch (it is the
	// destination).
	Deliver
	// DropTTL discards the packet because its TTL reached zero.
	DropTTL
	// DropNoRoute discards the packet for lack of a FIB entry.
	DropNoRoute
	// DropLoop discards the packet because this switch detected a
	// routing loop and no backup port is configured (§4: "drop the
	// packet and inform the controller").
	DropLoop
	// RerouteLoop forwards the packet out of a backup port after
	// detecting a loop — the PURR-style reaction from the paper's
	// conclusion.
	RerouteLoop
	// DropLink discards the packet because its egress port's link is
	// down (fault injection: the FIB still points at the dead link but
	// the wire is gone).
	DropLink
	// DropCorrupt discards the packet because wire-level corruption made
	// the frame unparseable at this hop (fault injection: the receiving
	// switch rejects the malformed frame instead of forwarding garbage).
	DropCorrupt
)

// NumDispositions is the number of Disposition values — the size callers
// use for per-disposition count arrays.
const NumDispositions = int(DropCorrupt) + 1

// String names the disposition.
func (d Disposition) String() string {
	switch d {
	case Forward:
		return "forward"
	case Deliver:
		return "deliver"
	case DropTTL:
		return "drop-ttl"
	case DropNoRoute:
		return "drop-no-route"
	case DropLoop:
		return "drop-loop"
	case RerouteLoop:
		return "reroute-loop"
	case DropLink:
		return "drop-link"
	case DropCorrupt:
		return "drop-corrupt"
	default:
		return fmt.Sprintf("Disposition(%d)", uint8(d))
	}
}

// Decision is the full pipeline output for one packet.
type Decision struct {
	Disposition Disposition
	// Egress is valid for Forward and RerouteLoop.
	Egress PortID
	// LoopReport is non-nil when the Unroller logic fired at this
	// switch, regardless of whether the packet was dropped, rerouted,
	// or sent on a collection lap.
	LoopReport *detect.Report
	// Members is the full loop membership, present only when a
	// collection lap (§3.5) just completed at this switch.
	Members []detect.SwitchID
}

// InitialTTL is the TTL edge injection uses. Configurations with
// TTLHopCount derive the Unroller hop counter as InitialTTL − TTL, so
// such packets must enter the network with exactly this TTL.
const InitialTTL = 255

// Switch is one forwarding element. Per the paper, Unroller keeps no
// per-flow state on the switch: the registers hold only the switch's own
// identifier, the algorithm configuration, and the 256-entry phase-start
// lookup table. The FIB is ordinary destination-based forwarding state,
// kept in the network's shared destination-major table (see fibTable).
type Switch struct {
	// ID is the switch identifier announced in packets.
	ID detect.SwitchID
	// Node is the topology node index this switch realises.
	Node int
	// LoopPolicy selects the reaction to a detected loop; the default
	// ActionReroute deflects when a backup port exists and drops
	// otherwise.
	LoopPolicy LoopAction

	// neighbors[p] is the node index reachable through port p.
	neighbors []int
	// portUp[p] mirrors the physical state of the link behind port p.
	// It is written only through Network.SetLink while traffic is
	// quiesced (the fault-injection contract), so the hot path reads it
	// without synchronisation.
	portUp []bool

	pipeline

	// stats are the live counters, mirroring what a P4 target would
	// expose; read a consistent-enough snapshot with Stats.
	stats switchCounters
}

// pipeline is what every switch of a network shares: the immutable
// detector and what is derived from it once, the forwarding table, and
// the state pool direct Process callers draw from.
type pipeline struct {
	// unroller is the shared detector (immutable, safe to share across
	// switches); phaseLUT mirrors the hardware's lookup-table register.
	unroller *core.Unroller
	phaseLUT []bool
	// ttlHops caches unroller.Config().TTLHopCount, read on every hop.
	ttlHops bool
	// emptyHeader is the encoded header of a packet that has not yet
	// visited a switch. Injection and reroutes copy it into the
	// packet's own buffer, never alias it: the next hop rewrites
	// telemetry in place.
	emptyHeader []byte
	fib         *fibTable
	// states recycles detector state across direct Process calls;
	// DecodeHeaderInto overwrites every field, so reuse is invisible to
	// the pipeline. Network sends bring their own state instead.
	states *statePool
}

// newPipeline prepares the shared part of a network of nodes switches.
func newPipeline(u *core.Unroller, nodes int) (pipeline, error) {
	empty, err := u.NewPacketState().AppendHeader(nil)
	if err != nil {
		return pipeline{}, err
	}
	return pipeline{
		unroller:    u,
		phaseLUT:    core.PhaseStartTable(u.Config(), 256),
		ttlHops:     u.Config().TTLHopCount,
		emptyHeader: empty,
		fib:         newFIB(nodes),
		states:      newStatePool(u),
	}, nil
}

// statePool recycles *core.State values so direct Process calls do not
// allocate a fresh state (struct plus two slices) per decode. It is a
// thin typed wrapper over sync.Pool; the Get-side type assertion lives
// here, outside any hotpath-tagged function body.
type statePool struct {
	pool sync.Pool
}

func newStatePool(u *core.Unroller) *statePool {
	sp := &statePool{}
	sp.pool.New = func() any { return u.NewPacketState() }
	return sp
}

func (sp *statePool) get() *core.State   { return sp.pool.Get().(*core.State) }
func (sp *statePool) put(st *core.State) { sp.pool.Put(st) }

// SwitchStats is a snapshot of a switch's packet counters.
type SwitchStats struct {
	Received  uint64
	Forwarded uint64
	Delivered uint64
	TTLDrops  uint64
	NoRoute   uint64
	LoopHits  uint64
	Reroutes  uint64
	LinkDrops uint64
	Restarts  uint64
}

// switchCounters are the live per-switch counters. They are atomic so
// parallel Send calls and TrafficEngine workers can share switches
// without locks: each field is an independent statistic, so per-field
// atomicity is the exact semantics a hardware counter array has. The
// pipeline itself never touches them; it counts into a hopCounts its
// caller owns, and the caller folds that in.
type switchCounters struct {
	received  atomic.Uint64
	forwarded atomic.Uint64
	delivered atomic.Uint64
	ttlDrops  atomic.Uint64
	noRoute   atomic.Uint64
	loopHits  atomic.Uint64
	reroutes  atomic.Uint64
	linkDrops atomic.Uint64
	restarts  atomic.Uint64
}

// hopCounts is the plain, single-owner counterpart of switchCounters
// that the pipeline counts into. SendMany workers keep one per node and
// fold them when they finish, as they do link loads; Send, SendFlow and
// direct Process calls fold after every hop. Addition commutes, so the
// folded totals do not depend on who folds when.
type hopCounts struct {
	received, forwarded, delivered, ttlDrops uint64
	noRoute, loopHits, reroutes, linkDrops   uint64
}

// fold adds c to the shared counters and zeroes c.
func (sc *switchCounters) fold(c *hopCounts) {
	if c.received != 0 {
		sc.received.Add(c.received)
	}
	if c.forwarded != 0 {
		sc.forwarded.Add(c.forwarded)
	}
	if c.delivered != 0 {
		sc.delivered.Add(c.delivered)
	}
	if c.ttlDrops != 0 {
		sc.ttlDrops.Add(c.ttlDrops)
	}
	if c.noRoute != 0 {
		sc.noRoute.Add(c.noRoute)
	}
	if c.loopHits != 0 {
		sc.loopHits.Add(c.loopHits)
	}
	if c.reroutes != 0 {
		sc.reroutes.Add(c.reroutes)
	}
	if c.linkDrops != 0 {
		sc.linkDrops.Add(c.linkDrops)
	}
	*c = hopCounts{}
}

// Stats returns a snapshot of the switch's counters. Each field is read
// atomically; when sends are in flight the fields may straddle packet
// boundaries and miss what SendMany workers have not yet folded, but
// once traffic quiesces (e.g. after SendMany returns) the snapshot is
// exact.
func (s *Switch) Stats() SwitchStats {
	return SwitchStats{
		Received:  s.stats.received.Load(),
		Forwarded: s.stats.forwarded.Load(),
		Delivered: s.stats.delivered.Load(),
		TTLDrops:  s.stats.ttlDrops.Load(),
		NoRoute:   s.stats.noRoute.Load(),
		LoopHits:  s.stats.loopHits.Load(),
		Reroutes:  s.stats.reroutes.Load(),
		LinkDrops: s.stats.linkDrops.Load(),
		Restarts:  s.stats.restarts.Load(),
	}
}

// newSwitch wires a switch for the given node of the network pl serves.
func newSwitch(id detect.SwitchID, node int, neighbors []int, pl pipeline) *Switch {
	up := make([]bool, len(neighbors))
	for i := range up {
		up[i] = true
	}
	return &Switch{
		ID:         id,
		Node:       node,
		LoopPolicy: ActionReroute, // deflect when a backup exists, else drop
		neighbors:  neighbors,
		portUp:     up,
		pipeline:   pl,
	}
}

// checkPort rejects ports the switch does not have.
func (s *Switch) checkPort(port PortID) error {
	if int(port) < 0 || int(port) >= len(s.neighbors) || port > math.MaxInt16 {
		return fmt.Errorf("dataplane: %v has no port %d", s.ID, port)
	}
	return nil
}

// SetRoute installs dst→port in the FIB.
func (s *Switch) SetRoute(dst detect.SwitchID, port PortID) error {
	if err := s.checkPort(port); err != nil {
		return err
	}
	s.fib.set(dst, s.Node, port)
	return nil
}

// SetBackup installs an alternate egress for dst used after a loop
// report.
func (s *Switch) SetBackup(dst detect.SwitchID, port PortID) error {
	if err := s.checkPort(port); err != nil {
		return err
	}
	s.fib.set(dst, s.fib.nodes+s.Node, port)
	return nil
}

// ClearBackups removes every backup route, reverting the switch to the
// paper's base behaviour: drop and report on detection.
func (s *Switch) ClearBackups() { s.fib.clearColumn(s.fib.nodes + s.Node) }

// ClearRoute withdraws the FIB entry for dst (a route withdrawal from
// the control plane); subsequent dst-bound packets drop as no-route.
func (s *Switch) ClearRoute(dst detect.SwitchID) {
	if row := s.fib.row(dst); row != nil {
		row[s.Node] = noPort
		row[s.fib.nodes+s.Node] = noPort
	}
}

// Routes returns a copy of the FIB — the snapshot a scenario captures
// before a restart so recovery can reinstall the exact same state.
func (s *Switch) Routes() map[detect.SwitchID]PortID {
	out := make(map[detect.SwitchID]PortID)
	for r, row := range s.fib.rows {
		if row != nil && row[s.Node] != noPort {
			out[s.fib.ids[r]] = PortID(row[s.Node])
		}
	}
	return out
}

// Restart emulates a switch reboot: the FIB and backup tables are wiped
// (forwarding state lives in volatile memory; until the control plane
// reprograms it, traffic through this switch drops as no-route). The
// Unroller registers survive conceptually — they hold only the switch's
// identifier and static configuration — and the traffic counters are
// external observability, so both are kept. Restart must not race with
// in-flight sends, like all route mutation.
func (s *Switch) Restart() {
	s.fib.clearColumn(s.Node)
	s.fib.clearColumn(s.fib.nodes + s.Node)
	s.stats.restarts.Add(1)
}

// Route returns the FIB entry for dst.
func (s *Switch) Route(dst detect.SwitchID) (PortID, bool) {
	return s.fib.get(dst, s.Node)
}

// Ports returns the number of ports.
func (s *Switch) Ports() int { return len(s.neighbors) }

// Peer returns the node index on the far end of port p.
func (s *Switch) Peer(p PortID) int { return s.neighbors[p] }

// Process runs the ingress pipeline on the packet in place, mirroring the
// paper's P4 control block: (0) TTL check, (1) parse the Unroller header
// and bump Xcnt via Visit, (2)–(3) hash, compare, and update the stored
// identifiers, (4) on a match report to the controller and drop — or
// deflect to the backup port when one is installed — then deparse and
// forward by FIB. The switch counters are updated before it returns.
func (s *Switch) Process(p *Packet) (Decision, error) {
	st := s.states.get()
	var c hopCounts
	dec, err := s.process(p, st, &c)
	s.states.put(st)
	s.stats.fold(&c)
	return dec, err
}

// process is the per-hop body of Process. st is scratch detector state
// the caller owns (its contents are overwritten), and the hop is counted
// into c instead of the shared counters.
//
//unroller:hotpath
func (s *Switch) process(p *Packet, st *core.State, c *hopCounts) (Decision, error) {
	c.received++

	// Collection-mode packets circulate the loop to record membership;
	// they never deliver.
	if p.Flags&FlagCollect != 0 {
		if p.TTL == 0 {
			c.ttlDrops++
			return Decision{Disposition: DropTTL}, nil
		}
		p.TTL--
		return s.processCollect(p, c)
	}

	// Destination check precedes everything: the last hop delivers.
	if p.Dst == s.ID {
		c.delivered++
		return Decision{Disposition: Deliver}, nil
	}

	// TTL: decrement and drop at zero, the loss Unroller preempts.
	if p.TTL == 0 {
		c.ttlDrops++
		return Decision{Disposition: DropTTL}, nil
	}
	p.TTL--

	// Unroller control block over the in-band header.
	var report *detect.Report
	if len(p.Telemetry) > 0 {
		if err := s.decodeTelemetry(st, p); err != nil {
			//unroller:allow hotpath -- malformed-header path: the packet is already dead
			return Decision{}, fmt.Errorf("dataplane: %v: %w", s.ID, err)
		}
		verdict := st.Visit(s.ID)
		if verdict == detect.Loop {
			c.loopHits++
			//unroller:allow hotpath -- fires once per detected loop, not per hop
			report = &detect.Report{Reporter: s.ID, Hops: int(st.Hops())}
			return s.reactToLoop(p, report, c)
		}
		tel, err := st.AppendHeader(p.Telemetry[:0])
		if err != nil {
			//unroller:allow hotpath -- encode failure path: the packet is already dead
			return Decision{}, fmt.Errorf("dataplane: %v: re-encode: %w", s.ID, err)
		}
		p.Telemetry = tel
	}

	// Destination-based forwarding.
	port, ok := s.Route(p.Dst)
	if !ok {
		c.noRoute++
		return Decision{Disposition: DropNoRoute, LoopReport: report}, nil
	}
	if !s.portUp[port] {
		c.linkDrops++
		return Decision{Disposition: DropLink, LoopReport: report}, nil
	}
	c.forwarded++
	return Decision{Disposition: Forward, Egress: port, LoopReport: report}, nil
}

// decodeTelemetry parses the packet's Unroller header into st, deriving
// the hop counter from the TTL when the configuration elides it
// (footnote 3 of the paper). TTL-derived counting requires packets
// injected with InitialTTL; Process has already decremented the TTL for
// this hop, so the pre-Visit hop count is InitialTTL − TTL − 1.
//
//unroller:allow errctx -- Process wraps every return as "dataplane: <switch>: %w"
func (s *Switch) decodeTelemetry(st *core.State, p *Packet) error {
	switch {
	case !s.ttlHops:
		return s.unroller.DecodeHeaderInto(st, p.Telemetry)
	case p.TTL >= InitialTTL:
		return fmt.Errorf("TTL %d inconsistent with TTL-derived hop counting (initial %d)", p.TTL, InitialTTL)
	default:
		return s.unroller.DecodeHeaderAtInto(st, p.Telemetry, uint64(InitialTTL)-uint64(p.TTL)-1)
	}
}

// reactToLoop applies the switch's loop policy to a packet on which the
// Unroller logic just fired.
func (s *Switch) reactToLoop(p *Packet, report *detect.Report, c *hopCounts) (Decision, error) {
	switch s.LoopPolicy {
	case ActionReroute:
		if bp, ok := s.fib.get(p.Dst, s.fib.nodes+s.Node); ok && s.portUp[bp] {
			// Deflect: reset the telemetry so the detector
			// restarts on the new route. The empty header is
			// copied into the packet's own buffer, never aliased:
			// the next hop rewrites it in place.
			p.Telemetry = append(p.Telemetry[:0], s.emptyHeader...)
			c.reroutes++
			return Decision{Disposition: RerouteLoop, Egress: bp, LoopReport: report}, nil
		}
	case ActionCollect:
		// Tag the packet for one recording lap (§3.5); it keeps
		// following the looping FIB and returns here with the full
		// membership.
		if port, ok := s.Route(p.Dst); ok && s.portUp[port] {
			rec := collectRecord{Initiator: s.ID}
			tel, err := rec.marshal()
			if err != nil {
				return Decision{}, err
			}
			p.Telemetry = tel
			p.Flags |= FlagCollect
			c.forwarded++
			return Decision{Disposition: Forward, Egress: port, LoopReport: report}, nil
		}
	case ActionDrop:
		// fall through to the drop below
	}
	return Decision{Disposition: DropLoop, LoopReport: report}, nil
}

// PhaseStartLUT exposes the lookup-table register (useful for inspecting
// hardware fidelity in tests and the emulator CLI).
func (s *Switch) PhaseStartLUT() []bool { return s.phaseLUT }
