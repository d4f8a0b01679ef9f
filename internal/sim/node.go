package sim

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Protocol is the interface a routing protocol implements per node. The
// simulator mirrors the real system's control flow (§3.3.3): the MAC pulls a
// frame exactly when it wins a transmission opportunity, and pushes up every
// successfully decoded frame — addressed, broadcast, or overheard.
type Protocol interface {
	// Init is called once, before any traffic, with the node handle.
	Init(n *Node)

	// Receive is called for every frame this node successfully decodes,
	// including frames addressed elsewhere (promiscuous listening, which
	// both MORE and ExOR depend on). Duplicate unicast retransmissions
	// are suppressed by the MAC, and so is a frame whose Heard set names
	// this node.
	Receive(f *Frame)

	// Pull is called when the MAC is ready to transmit. The protocol
	// returns the frame to send, or nil if it has nothing; returning nil
	// puts the MAC to sleep until Wake is called.
	Pull() *Frame

	// Sent reports the fate of a pulled frame: for unicast, whether the
	// MAC-level ACK arrived within the retry limit; for broadcast, always
	// true once the frame is on the air.
	Sent(f *Frame, ok bool)
}

// FrameSink accepts frames injected by timer-driven (push) traffic
// sources. Pull-based protocols generate a frame only when the MAC asks, so
// the medium backpressures them; a push source instead hands each generated
// frame to a sink the moment its clock fires, no matter how congested the
// path below is. The congestion layer implements FrameSink (pushed frames
// enter its bounded queue and can overflow, exercising the tail/CHOKe drop
// policies as designed); protocols that host push sources accept a sink via
// their own SetPushSink hook.
type FrameSink interface {
	// PushFrame offers a frame for transmission with no backpressure: the
	// sink either queues it or drops it under its own policy.
	PushFrame(f *Frame)
}

// Node is a simulated wireless router.
type Node struct {
	sim   *Simulator
	id    graph.NodeID
	proto Protocol
	mac   *mac

	// Requested WakeAfter firings, earliest first from wakeHead on; wakeEv
	// is in the event heap under the earliest one's key (event.go).
	wakes    []wakeKey
	wakeHead int
	wakeEv   Event
}

func newNode(s *Simulator, id graph.NodeID) *Node {
	n := &Node{sim: s, id: id}
	n.mac = &s.macs[id]
	n.mac.init(n)
	n.wakeEv.init(s, n.wakeDue)
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() graph.NodeID { return n.id }

// Sim returns the owning simulator.
func (n *Node) Sim() *Simulator { return n.sim }

// Now returns the current simulated time.
func (n *Node) Now() Time { return n.sim.now }

// Rand returns the deterministic simulation RNG.
func (n *Node) Rand() *rand.Rand { return n.sim.rng }

// After schedules fn after delay; the returned event can be canceled.
func (n *Node) After(delay Time, fn func()) *Event { return n.sim.After(delay, fn) }

// NewTimer returns an unarmed event bound to fn, for a timer the protocol
// restarts time and again with Event.Reset.
func (n *Node) NewTimer(fn func()) *Event {
	e := new(Event)
	e.init(n.sim, fn)
	return e
}

// WatchStall runs a batch-stall watchdog on this node: every interval it
// reads progress — the watched flow's batch index (never negative) and
// whether the flow is done — and calls stalled when a whole interval passed
// with the index unmoved. It stops once the flow is done, and keeps watching
// without firing while the node is failed (a dead source repairs nothing).
// The timer re-arms after stalled returns, so whatever the callback
// schedules runs ahead of the next check.
func (n *Node) WatchStall(interval Time, progress func() (batch int, done bool), stalled func()) {
	last := -1
	var check func()
	check = func() {
		batch, done := progress()
		if done {
			return
		}
		if !n.Failed() && batch == last {
			stalled()
		}
		last, _ = progress()
		n.After(interval, check)
	}
	n.After(interval, check)
}

// Wake tells the MAC the protocol has traffic; the MAC will contend for the
// medium and eventually call Pull. Failed nodes ignore wakes.
func (n *Node) Wake() {
	n.mac.wake()
}

// Telemetry reports whether a telemetry sink is installed. Layers that
// need per-event bookkeeping before emitting (e.g. queue-wait timestamps)
// gate that bookkeeping on this so the off path stays free.
func (n *Node) Telemetry() bool { return n.sim.Telem != nil }

// Emit stamps a telemetry event with the current time and this node's ID
// and forwards it to the installed sink; without a sink it is a single
// nil check. Protocol layers emit through this.
func (n *Node) Emit(ev telemetry.Event) {
	if s := n.sim.Telem; s != nil {
		ev.At = int64(n.sim.now)
		ev.Node = int32(n.id)
		s.Emit(ev)
	}
}

// Failed reports whether the node has been silenced by Simulator.FailNode.
func (n *Node) Failed() bool { return n.sim.failed.Has(n.id) }

// TxQueueActive reports whether the MAC is currently working on a frame
// (contending, transmitting, or awaiting a MAC ACK).
func (n *Node) TxQueueActive() bool { return n.mac.state != macIdle }
