// Package srcr implements the traditional best-path baseline of the
// evaluation: Srcr (Bicket et al.), a source-routed protocol that picks the
// ETX-shortest path with Dijkstra and relays packets hop by hop over
// 802.11 unicast with MAC retransmissions (§4.1.1). Routers keep a 50-packet
// drop-tail queue (§4.1.2). The package also implements an Onoe-style
// credit-based autorate algorithm (§4.4) selecting among the 802.11b rates.
package srcr

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// queueSize bounds each router's drop-tail output queue: the §4.1.2
// 50-packet driver queue.
const queueSize = 50

// Config parameterizes Srcr.
type Config struct {
	// PayloadSize is the data payload per packet (1500 B in the paper).
	PayloadSize int
	// Autorate enables Onoe-style bit-rate selection per neighbor; when
	// false frames go out at the simulator's data rate.
	Autorate bool
	// RepairInterval arms route repair for file transfers: a source
	// whose FIN passes go unanswered for this long recomputes its route
	// regardless of routing-state version (the stall is itself the
	// evidence the route is broken), and failed FIN/NACK retransmissions
	// re-resolve their next hop instead of retrying the stale one. Zero
	// disables repair (the default).
	RepairInterval sim.Time
}

// DefaultConfig is the §4.1.2 setup every fixed-rate run uses: 1500-byte
// payloads, the simulator's data rate, no repair.
func DefaultConfig() Config {
	return Config{PayloadSize: 1500}
}

// DataMsg is a Srcr data packet: a source-route header plus payload.
type DataMsg struct {
	Flow    flow.ID
	Seq     int
	Route   []graph.NodeID // full path, Route[0] == source
	Hop     int            // index of the current holder in Route
	Payload []byte

	// buf backs Payload: a message owns its bytes, and keeps them through
	// release for the next packet it carries.
	buf []byte
	// frame carries the message one hop (frameFor): message and frame are
	// one object, recycled once Sent hands the frame back (poison). Each
	// message is framed once; a relay copies what it received into its own.
	frame sim.Frame
}

// releasedFlow is the Flow of a released message: no flow has it, so a read
// after release finds no state.
const releasedFlow = ^flow.ID(0)

func (m *DataMsg) wireBytes() int {
	h := packet.SrcrHeader{Route: m.Route}
	return h.EncodedSize() + len(m.Payload)
}

// Node is the Srcr instance on one router.
type Node struct {
	cfg   Config
	node  *sim.Node
	state flow.RoutingState

	queue   []*DataMsg   // forwarding queue, drop tail
	control []*sim.Frame // FIN/NACK control messages (prioritized)
	// free holds data messages Sent handed back, for newMsg to reuse.
	free    sim.FreeList[DataMsg]
	sources map[flow.ID]*sourceState
	// sourceOrder fixes the service order of concurrent local sources: map
	// iteration order would leak nondeterminism into multi-flow runs.
	sourceOrder []flow.ID
	sinks       map[flow.ID]*sinkState
	pushes      map[flow.ID]*pushState
	onoe        map[graph.NodeID]*Onoe

	// sink, when set (congestion layer present), receives push-generated
	// frames with no backpressure; pushQ is the bare-mode fallback, a local
	// drop-tail queue bounded by queueSize.
	sink  sim.FrameSink
	pushQ []*sim.Frame

	// Counters.
	QueueDrops int64
	MACDrops   int64
	Forwarded  int64
}

type sourceState struct {
	id       flow.ID
	route    []graph.NodeID
	file     flow.File // packet seq is made from it at each send
	inFlight bool
	done     bool
	onDone   func()

	// End-to-end ARQ state (reliable.go).
	pending      []int // sequence numbers still to (re)send this pass
	pass         int
	awaitingNack bool
	finTimer     *sim.Event
	// finRetries counts consecutive unanswered FIN timeouts; repair fires
	// once they span RepairInterval.
	finRetries int

	// planVersion is the routing-state generation the route was computed
	// from; learned views tick it, and the source re-routes at the next
	// reliability-pass boundary.
	planVersion uint64
}

type sinkState struct {
	result  flow.Result // the flow's one record (see flow.Result)
	file    flow.File
	haveSeq []bool // per-sequence delivery (e2e duplicate suppression); nil without ExpectFlow
	onDone  func()
}

// NewNode creates a Srcr node; attach with sim.Attach.
func NewNode(cfg Config, state flow.RoutingState) *Node {
	return &Node{
		cfg:     cfg,
		state:   state,
		sources: make(map[flow.ID]*sourceState),
		sinks:   make(map[flow.ID]*sinkState),
		pushes:  make(map[flow.ID]*pushState),
		onoe:    make(map[graph.NodeID]*Onoe),
		free:    sim.FreeList[DataMsg]{Reset: poison},
	}
}

// Init implements sim.Protocol.
func (n *Node) Init(sn *sim.Node) { n.node = sn }

// StartFlow begins a best-path transfer of file to dst. The source is
// backlogged: it offers the next outstanding packet whenever the previous
// one clears the MAC, and after each pass over them asks the destination
// what is still missing (the end-to-end ARQ of reliable.go). onDone fires
// when the destination reports nothing missing. Send-once datagram traffic
// is StartPushFlow.
func (n *Node) StartFlow(id flow.ID, dst graph.NodeID, file flow.File, onDone func()) error {
	if _, dup := n.sources[id]; dup {
		return fmt.Errorf("srcr: duplicate flow %d", id)
	}
	route := n.state.Path(n.node.ID(), dst)
	if route == nil {
		return fmt.Errorf("srcr: no route %d -> %d", n.node.ID(), dst)
	}
	st := &sourceState{
		id:          id,
		route:       route,
		file:        file,
		onDone:      onDone,
		planVersion: n.state.Version(),
	}
	st.startPassTracking(file.NumPackets())
	n.sources[id] = st
	n.sourceOrder = append(n.sourceOrder, id)
	n.node.Wake()
	return nil
}

// ExpectFlow wires up destination-side verification and reporting.
func (n *Node) ExpectFlow(id flow.ID, file flow.File, onDone func()) {
	s := &sinkState{file: file, onDone: onDone}
	s.haveSeq = make([]bool, file.NumPackets())
	s.result = flow.Result{Dst: n.node.ID(), PacketsTotal: file.NumPackets(), Verified: true}
	n.sinks[id] = s
}

// Result returns the flow's result as its destination keeps it: a zero
// Result on any other node.
func (n *Node) Result(id flow.ID) flow.Result {
	if s, ok := n.sinks[id]; ok {
		return s.result
	}
	return flow.Result{}
}

// SourceFinished reports whether the source has seen the destination
// acknowledge the whole file.
func (n *Node) SourceFinished(id flow.ID) bool {
	s, ok := n.sources[id]
	return ok && s.done
}

// QueueLen exposes the forwarding queue depth (for tests).
func (n *Node) QueueLen() int { return len(n.queue) }

// Backlog counts every frame this node holds but has not yet offered to
// the MAC: forwarding queue, bare-mode push queue, and queued control.
// The scenario executor's drain phase runs until backlogs empty.
func (n *Node) Backlog() int { return len(n.queue) + len(n.pushQ) + len(n.control) }

// Receive implements sim.Protocol.
func (n *Node) Receive(f *sim.Frame) {
	switch m := f.Payload.(type) {
	case *FinMsg:
		n.receiveFin(f, m)
		return
	case *NackMsg:
		n.receiveNack(f, m)
		return
	}
	m, ok := f.Payload.(*DataMsg)
	if !ok || f.To != n.node.ID() {
		return // Srcr ignores overheard traffic: point-to-point abstraction
	}
	if m.Hop+1 >= len(m.Route) || m.Route[m.Hop+1] != n.node.ID() {
		return
	}
	if m.Hop+1 == len(m.Route)-1 {
		n.deliver(m) // deliver never reads Hop: the sender's message will do
		return
	}
	if len(n.queue) >= queueSize {
		n.QueueDrops++
		return
	}
	q := n.newMsg(m.Flow, m.Seq, m.Route, m.Hop+1, len(m.Payload))
	copy(q.Payload, m.Payload)
	n.queue = append(n.queue, q)
	n.node.Wake()
}

func (n *Node) deliver(m *DataMsg) {
	s, ok := n.sinks[m.Flow]
	if !ok {
		s = &sinkState{}
		s.result = flow.Result{Dst: n.node.ID(), Verified: true}
		n.sinks[m.Flow] = s
	}
	s.result.Arrive(m.Route[0], n.node.Now())
	if s.haveSeq != nil {
		if m.Seq >= len(s.haveSeq) || s.haveSeq[m.Seq] {
			return // duplicate from a later reliability pass
		}
		s.haveSeq[m.Seq] = true
	}
	n.node.Emit(telemetry.Event{
		Flow: uint32(m.Flow), Aux: int64(m.Seq), Kind: telemetry.KindPktDeliver,
	})
	s.result.Deliver(s.result.PacketsDelivered+1, n.node.Now())
	if s.haveSeq == nil {
		return
	}
	s.result.Check(s.file.Matches(m.Seq, m.Payload))
	if s.result.PacketsDelivered == len(s.haveSeq) && !s.result.Completed {
		s.result.Completed = true
		if s.onDone != nil {
			s.onDone()
		}
	}
}

// HasControl reports whether FIN/NACK control traffic is queued — the
// congestion layer's full-queue pull hint (it implements
// congest.ControlReporter).
func (n *Node) HasControl() bool { return len(n.control) > 0 }

// Pull implements sim.Protocol: control messages first, then bare-mode
// push frames (timer-generated, time-sensitive), then forwarding, then
// backlogged source traffic.
func (n *Node) Pull() *sim.Frame {
	if len(n.control) > 0 {
		fr := n.control[0]
		n.control = n.control[:copy(n.control, n.control[1:])]
		return fr
	}
	if len(n.pushQ) > 0 {
		fr := n.pushQ[0]
		n.pushQ = n.pushQ[:copy(n.pushQ, n.pushQ[1:])]
		return fr
	}
	if len(n.queue) > 0 {
		m := n.queue[0]
		n.queue = n.queue[:copy(n.queue, n.queue[1:])]
		return n.frameFor(m)
	}
	for _, id := range n.sourceOrder {
		st := n.sources[id]
		if !st.sendable() {
			continue
		}
		seq := st.pending[0]
		st.pending = st.pending[1:]
		m := n.newMsg(st.id, seq, st.route, 0, st.file.PacketSize(seq))
		st.file.Fill(seq, m.Payload)
		st.inFlight = true
		n.node.Emit(telemetry.Event{
			Flow: uint32(st.id), Aux: int64(seq), Kind: telemetry.KindPktSend,
		})
		return n.frameFor(m)
	}
	return nil
}

// newMsg takes a message off the free list, or makes one, for packet seq of
// flow id at hop of route, with size payload bytes for the caller to fill.
func (n *Node) newMsg(id flow.ID, seq int, route []graph.NodeID, hop, size int) *DataMsg {
	m := n.free.Get()
	if cap(m.buf) < size {
		m.buf = make([]byte, size)
	}
	m.Flow, m.Seq, m.Route, m.Hop, m.Payload = id, seq, route, hop, m.buf[:size]
	return m
}

// poison is what a message holds on the free list: a sentinel flow,
// sequence and hop, no route, no payload, a zero frame; only buf stays. A
// read that outlives the frame finds nothing it can use.
func poison(m *DataMsg) {
	*m = DataMsg{Flow: releasedFlow, Seq: -1, Hop: -1, buf: m.buf}
}

func (n *Node) frameFor(m *DataMsg) *sim.Frame {
	to := m.Route[m.Hop+1]
	f := &m.frame
	*f = sim.Frame{
		From:    n.node.ID(),
		To:      to,
		Bytes:   m.wireBytes(),
		Payload: m,
		FlowID:  uint32(m.Flow),
	}
	if n.cfg.Autorate {
		f.Rate = n.onoeFor(to).Rate()
	}
	return f
}

func (n *Node) onoeFor(neighbor graph.NodeID) *Onoe {
	o, ok := n.onoe[neighbor]
	if !ok {
		o = NewOnoe(n.node)
		n.onoe[neighbor] = o
	}
	return o
}

// Sent implements sim.Protocol.
func (n *Node) Sent(f *sim.Frame, ok bool) {
	switch m := f.Payload.(type) {
	case *FinMsg:
		if !ok {
			// Retry until delivered. With repair on, re-resolve the next hop
			// rather than re-queuing the frame's original one, which may have
			// died since the frame was addressed.
			if n.cfg.RepairInterval > 0 {
				n.queueControl(m, m.Target)
			} else {
				n.control = append(n.control, f)
			}
		}
		n.node.Wake()
		return
	case *NackMsg:
		if !ok {
			if n.cfg.RepairInterval > 0 {
				n.queueControl(m, m.Target)
			} else {
				n.control = append(n.control, f)
			}
		}
		n.node.Wake()
		return
	}
	m, isData := f.Payload.(*DataMsg)
	if !isData {
		return
	}
	if n.cfg.Autorate {
		n.onoeFor(f.To).Report(f.Retries, ok)
	}
	if !ok {
		n.MACDrops++
	} else if m.Hop > 0 {
		n.Forwarded++
	}
	if m.Hop == 0 {
		if st, okf := n.sources[m.Flow]; okf {
			st.inFlight = false
			if !st.done && len(st.pending) == 0 && !st.awaitingNack {
				n.finishPass(st)
			}
		}
	}
	n.free.Put(m)
	if len(n.queue) > 0 || len(n.control) > 0 || len(n.pushQ) > 0 || n.hasPendingSource() {
		n.node.Wake()
	}
}

func (n *Node) hasPendingSource() bool {
	for _, st := range n.sources {
		if st.sendable() {
			return true
		}
	}
	return false
}

// sendable reports whether the source has a packet to offer the MAC now:
// nothing of its own in flight, no FIN outstanding, the pass not exhausted.
func (st *sourceState) sendable() bool {
	return !st.done && !st.inFlight && !st.awaitingNack && len(st.pending) > 0
}
