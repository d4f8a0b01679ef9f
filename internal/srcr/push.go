package srcr

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Push traffic sources: UDP-like datagram flows over Srcr's source-routed
// forwarding. Where a pull transfer is backlogged — the MAC's transmission
// opportunities pace the source, so queues below backpressure — a push
// source generates packets on its own clock (constant-rate or on/off
// bursts, flow.Traffic) and offers each one downward the moment it exists:
//
//   - under a congestion layer, frames are injected through sim.FrameSink
//     into the layer's bounded queue, which overflows under overload and
//     lets the tail/CHOKe drop policies act as designed;
//   - bare (no layer), frames enter a local drop-tail queue bounded by
//     queueSize, the §4.1.2 50-packet driver queue.
//
// There is no ARQ and no completion handshake: losses are final, the flow
// "completes" when the source has generated its configured packet count.
// The destination side reuses the ordinary Srcr sink (ExpectFlow), so
// delivery counting, duplicate suppression, and payload verification work
// unchanged.

// pushState is the source-side state of one push flow.
type pushState struct {
	id  flow.ID
	dst graph.NodeID
	tr  flow.Traffic
	// file makes each packet as the clock reaches it, into the message
	// that carries it.
	file  flow.File
	route []graph.NodeID
	// planVersion tracks the routing state generation; the route is
	// recomputed when it moves (learned views converging, oracle
	// invalidation after a topology event).
	planVersion uint64

	epoch   sim.Time   // flow start: generation clock origin
	nextGen sim.Time   // absolute time of the next generation tick
	next    int        // next sequence number to generate
	tick    *sim.Event // the generation clock, re-armed every tick

	generated int
	drops     int64 // local-queue overflow drops (bare mode only)
	done      bool
	// halted marks a source killed by its node failing: generation stopped
	// without the schedule being met, unlike a deliberate StopPushFlow.
	halted bool
	result flow.Result
	onDone func(flow.Result)
}

// SetPushSink implements the congestion layer's PushSource hook: generated
// frames are injected into sink instead of the node's local queue.
func (n *Node) SetPushSink(s sim.FrameSink) { n.sink = s }

// StartPushFlow begins a push flow toward dst. file supplies the payload
// contents and must split into exactly tr.Packets packets, so the
// destination's ExpectFlow(file) verification lines up sequence by
// sequence. onDone fires when the source has generated its last packet;
// packets still queued or in flight are delivered (or lost) on their own
// time, as datagrams are.
func (n *Node) StartPushFlow(id flow.ID, dst graph.NodeID, tr flow.Traffic, file flow.File, onDone func(flow.Result)) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	if _, dup := n.pushes[id]; dup {
		return fmt.Errorf("srcr: duplicate push flow %d", id)
	}
	if _, dup := n.sources[id]; dup {
		return fmt.Errorf("srcr: flow %d already started as a pull transfer", id)
	}
	if file.NumPackets() != tr.Packets {
		return fmt.Errorf("srcr: push file splits into %d packets, traffic wants %d", file.NumPackets(), tr.Packets)
	}
	route := n.state.Path(n.node.ID(), dst)
	if route == nil {
		return fmt.Errorf("srcr: no route %d -> %d", n.node.ID(), dst)
	}
	now := n.node.Now()
	st := &pushState{
		id: id, dst: dst, tr: tr,
		file:        file,
		route:       route,
		planVersion: n.state.Version(),
		epoch:       now,
		nextGen:     now,
		onDone:      onDone,
		result: flow.Result{
			Src: n.node.ID(), Dst: dst,
			PacketsTotal: tr.Packets,
			Start:        now,
		},
	}
	n.pushes[id] = st
	st.tick = n.node.NewTimer(func() { n.pushTick(st) })
	st.tick.Reset(0)
	return nil
}

// PushStats reports a push source's accounting: packets generated so far,
// packets dropped at the bare local queue (always 0 under a congestion
// layer, whose Stats hold the drops instead), and whether the source ran
// its schedule to the end (its packet budget, or a deliberate
// StopPushFlow). A source whose node died mid-schedule reports done=false.
func (n *Node) PushStats(id flow.ID) (generated int, sourceDrops int64, done bool) {
	st, ok := n.pushes[id]
	if !ok {
		return 0, 0, false
	}
	return st.generated, st.drops, st.done && !st.halted
}

// SetPushRate retargets a live push source's generation rate (the scenario
// engine's set_rate action). The new rate takes effect from the next
// generation tick; the epoch-anchored on/off pattern keeps its phase. It
// reports whether a live constant-rate flow was found (on/off sources keep
// their configured burst structure and are not retargetable).
func (n *Node) SetPushRate(id flow.ID, pps float64) bool {
	st, ok := n.pushes[id]
	if !ok || st.done || pps <= 0 || st.tr.Model != flow.PushCBR {
		return false
	}
	st.tr.RatePPS = pps
	return true
}

// StopPushFlow halts a push source's generation early (a scheduled flow
// stop). The source result keeps Completed=false — the schedule was cut
// short — but counts as done for run-termination purposes via onDone.
// Packets already queued or in flight drain on their own. It reports
// whether a live flow was stopped.
func (n *Node) StopPushFlow(id flow.ID) bool {
	st, ok := n.pushes[id]
	if !ok || st.done {
		return false
	}
	st.done = true
	st.result.End = n.node.Now()
	if st.onDone != nil {
		st.onDone(st.result)
	}
	return true
}

// pushTick generates one packet and schedules the next tick.
func (n *Node) pushTick(st *pushState) {
	if st.done {
		return
	}
	if n.node.Failed() {
		// The radio died under the source: stop the clock for good. The
		// flow does not count as having run its schedule (see PushStats).
		st.done, st.halted = true, true
		st.result.End = n.node.Now()
		if st.onDone != nil {
			st.onDone(st.result)
		}
		return
	}
	// Refresh the route when the routing state has moved on — a learned
	// view re-converging, or the oracle invalidated after a topology event.
	// An unroutable destination keeps the stale route: the datagrams die at
	// the broken hop, exactly as an unresponsive source's would.
	if v := n.state.Version(); v != st.planVersion {
		st.planVersion = v
		if r := n.state.Path(n.node.ID(), st.dst); r != nil {
			st.route = r
		}
	}
	m := n.newMsg(st.id, st.next, st.route, 0, st.file.PacketSize(st.next))
	st.file.Fill(st.next, m.Payload)
	n.node.Emit(telemetry.Event{
		Flow: uint32(st.id), Aux: int64(st.next), Kind: telemetry.KindPktSend,
	})
	st.next++
	st.generated++
	f := n.frameFor(m)
	switch {
	case n.sink != nil:
		n.sink.PushFrame(f)
	case len(n.pushQ) < queueSize:
		n.pushQ = append(n.pushQ, f)
		n.node.Wake()
	default:
		st.drops++
		n.free.Put(m)
	}
	if st.next >= st.file.NumPackets() {
		st.done = true
		st.result.End = n.node.Now()
		st.result.Completed = true // the source ran its full schedule
		if st.onDone != nil {
			st.onDone(st.result)
		}
		return
	}
	st.advanceClock()
	st.tick.Reset(st.nextGen - n.node.Now())
}

// advanceClock moves nextGen to the following generation instant: one
// interval later, skipped over the off phase for on/off sources. The
// arithmetic runs on the epoch-anchored clock, so the pattern is exact and
// reproducible regardless of queueing below.
func (st *pushState) advanceClock() {
	st.nextGen += st.tr.Interval()
	if st.tr.Model != flow.PushOnOff {
		return
	}
	cycle := st.tr.On + st.tr.Off
	if off := (st.nextGen - st.epoch) % cycle; off >= st.tr.On {
		st.nextGen += cycle - off // jump to the next on-phase start
	}
}
