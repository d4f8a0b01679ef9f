// Package exor implements the ExOR baseline (Biswas & Morris, §2.2.1): the
// prior opportunistic routing protocol MORE is evaluated against.
//
// ExOR gathers packets into batches and defers the forwarding decision to
// after reception: of all nodes that decode a transmission, the one closest
// to the destination (by ETX) should forward it. Coordination is achieved
// with structure instead of randomness — a strict schedule walks the
// prioritized forwarder list, one transmitter at a time. Each data packet
// piggybacks the sender's batch map (for every packet, the highest-priority
// node known to hold it); listeners merge maps so a node forwards only
// packets no higher-priority node holds. Turn handoff keys off overheard
// fragment-end markers, with staggered timeouts standing in for ExOR's
// fragile timing estimates. Because exactly one forwarder may transmit at a
// time, a flow cannot exploit spatial reuse — the property §4.2.3 measures.
//
// When the batch map shows the destination holding at least 90% of the
// batch, the remaining packets travel by traditional unicast along the ETX
// path (ExOR's cleanup rule), and the destination confirms batch completion
// to the source with a hop-by-hop acknowledgment.
package exor

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Fixed ExOR parameters (Biswas & Morris; §2.2.1 here).
const (
	// cleanupFraction: once the destination holds this fraction of the
	// batch, the tail moves via traditional routing (ExOR uses 0.9).
	cleanupFraction float64 = 0.9
	// dstGossipRepeat is how many times the destination transmits its
	// batch map during its turn. ExOR's ultimate destination sends its
	// map ten times per round to make the highest-priority reception
	// state survive losses.
	dstGossipRepeat = 10
)

// Config parameterizes ExOR.
type Config struct {
	// BatchSize is K.
	BatchSize int
	// PayloadSize is the per-packet payload (1500 B in the paper).
	PayloadSize int
	// Plan configures forwarder selection (shared with MORE for a fair
	// comparison).
	Plan routing.PlanOptions
	// RepairInterval arms route repair: a source whose batch makes no
	// progress for a full interval rebuilds its priority list from the
	// current routing state and restarts the batch (the turn schedule is
	// priority-list-relative, so a mid-batch list swap would corrupt every
	// node's batch map); failed cleanup/done unicasts re-resolve their next
	// hop instead of retrying the stale one; and a destination that keeps
	// hearing data for a batch it already completed re-announces the
	// completion (its DoneMsg died on a stale route). Zero disables repair
	// (the default).
	RepairInterval sim.Time
}

// DefaultConfig matches the paper's ExOR setup.
func DefaultConfig() Config {
	return Config{
		BatchSize:   32,
		PayloadSize: 1500,
		Plan:        routing.DefaultPlanOptions(),
	}
}

// DataMsg is an ExOR batch fragment packet (or a map-only gossip packet).
type DataMsg struct {
	Flow     flow.ID
	Src, Dst graph.NodeID
	Batch    int
	K        int
	// BatchBase is the index of the batch's first packet within the file.
	BatchBase     int
	TotalBatches  int
	PktIdx        int // -1 for map-only gossip
	FragRemaining int
	SenderPrio    int
	BMap          []uint8
	Prio          []graph.NodeID // priority list: [dst, forwarders..., src]
	Payload       []byte

	// frame carries the message (dataFrame): message and frame are one
	// object, recycled once Sent hands the frame back (poison).
	frame sim.Frame
}

// releasedFlow is the Flow of a released message: no flow has it, so a read
// after release finds no state.
const releasedFlow = ^flow.ID(0)

func (m *DataMsg) wireBytes() int {
	return packet.ExORHeaderSize(len(m.BMap), len(m.Prio)) + len(m.Payload)
}

// CleanupMsg carries one tail packet via traditional unicast routing.
type CleanupMsg struct {
	Flow    flow.ID
	Batch   int
	PktIdx  int
	Target  graph.NodeID // the flow destination
	Payload []byte
}

func (m *CleanupMsg) wireBytes() int {
	return packet.SrcrHeaderSize(4) + len(m.Payload)
}

// DoneMsg tells the source (hop-by-hop unicast) that the destination holds
// the whole batch.
type DoneMsg struct {
	Flow   flow.ID
	Batch  int
	Final  bool
	Target graph.NodeID // the flow source
}

func (m *DoneMsg) wireBytes() int {
	h := packet.MOREHeader{Type: packet.TypeACK}
	return h.EncodedSize() + 9
}

// Node is the ExOR instance on one router.
type Node struct {
	cfg   Config
	node  *sim.Node
	state flow.RoutingState
	// pktTime estimates one data transmission's wall time (frame airtime
	// plus the MAC's mean contention wait); it staggers successive
	// priorities' turn starts. Derived at Init from the simulator's rate.
	pktTime sim.Time

	flows     map[flow.ID]*exorFlow
	flowOrder []flow.ID    // deterministic iteration order
	unicast   []*sim.Frame // cleanup/done frames awaiting transmission
	// free holds data messages Sent handed back, for dataFrame to reuse.
	free sim.FreeList[DataMsg]

	// Counters.
	DataSent   int64
	MapOnly    int64
	CleanupTx  int64
	TurnsTaken int64
}

// exorFlow is per-flow state (§2.2.1's batch buffer + batch map + schedule).
type exorFlow struct {
	id           flow.ID
	src, dst     graph.NodeID
	prio         []graph.NodeID
	myPrio       int // index in prio, -1 if not a participant
	batch        int
	k            int
	totalBatches int

	have    []bool
	payload [][]byte
	bmap    []uint8
	base    int // file index of the batch's first packet

	// Source-only.
	isSource bool
	file     flow.File // the batch's packets are made from it at load
	result   flow.Result
	done     bool
	onDone   func(flow.Result)
	// planVersion is the routing-state generation prio was computed from;
	// learned views tick it, and the source rebuilds the priority list at
	// the next batch boundary.
	planVersion uint64
	// reDoneAt rate-limits destination completion re-announcements.
	reDoneAt sim.Time

	// Sink-only.
	verify    *flow.File // set by ExpectFlow; nil checks nothing
	delivered int
	sinkRes   flow.Result
	sinkDone  func(flow.Result)
	doneSent  bool

	// Scheduling.
	turnTimer  *sim.Event
	watchdog   *sim.Event
	inTurn     bool
	fragQueue  []int
	fragBuf    []int // backs fragQueue, reused turn after turn
	gossipLeft int   // map-only packets still to send this turn
	mapDirty   bool
	cleanup    bool
	cleanedIdx map[int]bool
}

// NewNode creates an ExOR node; attach with sim.Attach.
func NewNode(cfg Config, state flow.RoutingState) *Node {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	return &Node{
		cfg:   cfg,
		state: state,
		flows: make(map[flow.ID]*exorFlow),
		free:  sim.FreeList[DataMsg]{Reset: poison},
	}
}

// Init implements sim.Protocol.
func (n *Node) Init(sn *sim.Node) {
	n.node = sn
	n.pktTime = sim.AirTime(packet.ExORHeaderSize(n.cfg.BatchSize, 8)+n.cfg.PayloadSize, sn.Sim().Config().DataRate) +
		sim.DIFS + sim.Time(sim.CWMin/2)*sim.SlotTime
}

// StartFlow begins a batched ExOR transfer to dst.
func (n *Node) StartFlow(id flow.ID, dst graph.NodeID, file flow.File, onDone func(flow.Result)) error {
	if _, dup := n.flows[id]; dup {
		return fmt.Errorf("exor: duplicate flow %d", id)
	}
	prio, err := n.priorityList(dst)
	if err != nil {
		return fmt.Errorf("exor: flow %d: %w", id, err)
	}
	total := file.NumPackets()
	if total == 0 {
		return fmt.Errorf("exor: flow %d: empty file", id)
	}
	f := &exorFlow{
		id: id, src: n.node.ID(), dst: dst,
		prio: prio, myPrio: len(prio) - 1,
		totalBatches: (total + n.cfg.BatchSize - 1) / n.cfg.BatchSize,
		isSource:     true,
		file:         file,
		onDone:       onDone,
		cleanedIdx:   make(map[int]bool),
		planVersion:  n.state.Version(),
	}
	f.result = flow.Result{Src: n.node.ID(), Dst: dst, PacketsTotal: total, Start: n.node.Now()}
	n.flows[id] = f
	n.flowOrder = append(n.flowOrder, id)
	n.loadSourceBatch(f, 0)
	if n.cfg.RepairInterval > 0 {
		n.node.WatchStall(n.cfg.RepairInterval,
			func() (int, bool) { return f.batch, f.done },
			func() { n.restartStalled(f) })
	}
	n.startTurn(f)
	return nil
}

// priorityList plans this source's priority list to dst from the current
// routing state: [dst, forwarders..., src], highest priority first.
func (n *Node) priorityList(dst graph.NodeID) ([]graph.NodeID, error) {
	plan, err := routing.BuildPlan(n.state.Graph(), n.node.ID(), dst, n.cfg.Plan)
	if err != nil {
		return nil, err
	}
	prio := append([]graph.NodeID{dst}, plan.Forwarders()...)
	return append(prio, n.node.ID()), nil
}

// restartStalled is the stall watchdog's verdict for one source flow: a
// batch that completed nothing for a full RepairInterval is restarted over a
// priority list rebuilt from the current routing state. Restarting (rather
// than swapping the list mid-batch) is deliberate: batch-map entries are
// indices into the priority list, so every participant must see the new list
// from a clean slate. Receivers keep their payloads — a restarted batch
// re-merges their maps and skips straight to what is still missing.
func (n *Node) restartStalled(f *exorFlow) {
	n.node.Emit(telemetry.Event{
		Flow: uint32(f.id), Batch: uint32(f.batch),
		Aux: telemetry.StallBatch, Kind: telemetry.KindStall,
	})
	if prio, err := n.priorityList(f.dst); err == nil {
		f.prio, f.myPrio = prio, len(prio)-1
		n.node.Emit(telemetry.Event{
			Flow: uint32(f.id), Batch: uint32(f.batch),
			Aux: telemetry.ReplanStall, Kind: telemetry.KindReplan,
		})
	}
	f.planVersion = n.state.Version()
	n.loadSourceBatch(f, f.batch)
	n.startTurn(f)
}

// loadSourceBatch resets the source's per-batch state and makes the
// batch's packets from the file (a restart makes the same bytes again).
// When the routing state has re-converged since the priority list was built
// (learned link state only; the oracle's version is constant), the list is
// rebuilt so the new batch runs over the freshest forwarder ordering.
func (n *Node) loadSourceBatch(f *exorFlow, b int) {
	if v := n.state.Version(); v != f.planVersion {
		f.planVersion = v
		if prio, err := n.priorityList(f.dst); err == nil {
			f.prio, f.myPrio = prio, len(prio)-1
		}
	}
	f.batch = b
	f.base = b * n.cfg.BatchSize
	nat := f.file.Packets(f.base, min(f.base+n.cfg.BatchSize, f.file.NumPackets()))
	f.k = len(nat)
	f.have = make([]bool, f.k)
	f.payload = make([][]byte, f.k)
	f.bmap = make([]uint8, f.k)
	for i := range nat {
		f.have[i] = true
		f.payload[i] = nat[i]
		f.bmap[i] = uint8(f.myPrio)
	}
	f.cleanup = false
	f.cleanedIdx = make(map[int]bool)
	f.inTurn = false
	f.fragQueue = nil
	n.node.Emit(telemetry.Event{
		Flow: uint32(f.id), Batch: uint32(b), Kind: telemetry.KindBatchStart,
	})
}

// ExpectFlow wires destination-side reporting and verification.
func (n *Node) ExpectFlow(id flow.ID, file flow.File, onDone func(flow.Result)) {
	f := n.flowFor(id)
	f.verify = &file
	f.sinkDone = onDone
	f.sinkRes.PacketsTotal = file.NumPackets()
	f.sinkRes.Dst = n.node.ID()
	f.sinkRes.Verified = true
}

func (n *Node) flowFor(id flow.ID) *exorFlow {
	f, ok := n.flows[id]
	if !ok {
		f = &exorFlow{id: id, myPrio: -1, batch: -1, cleanedIdx: make(map[int]bool)}
		n.flows[id] = f
		n.flowOrder = append(n.flowOrder, id)
	}
	return f
}

// Result returns this node's view of the flow.
func (n *Node) Result(id flow.ID) flow.Result {
	f, ok := n.flows[id]
	if !ok {
		return flow.Result{}
	}
	if f.isSource {
		return f.result
	}
	return f.sinkRes
}

// --- Scheduling ---------------------------------------------------------------

// armTurn schedules this node's turn based on the latest overheard packet.
// As in ExOR, nodes estimate when their turn comes from transmission
// timings: the sender's remaining fragment plus, for every priority
// scheduled between the sender and us, an estimated fragment length derived
// from our batch map (the packets that node is the best known holder of).
func (n *Node) armTurn(f *exorFlow, senderPrio, fragRemaining int) {
	if f.myPrio < 0 {
		return
	}
	wait := sim.Time(fragRemaining+1) * n.pktTime
	l := len(f.prio)
	for p := (senderPrio + 1) % l; p != f.myPrio; p = (p + 1) % l {
		if p == 0 {
			// The destination only gossips its map.
			wait += n.pktTime
			continue
		}
		held := 0
		for i := 0; i < f.k; i++ {
			if int(f.bmap[i]) == p {
				held++
			}
		}
		wait += sim.Time(held+1) * n.pktTime
	}
	if f.turnTimer == nil {
		f.turnTimer = n.node.NewTimer(func() { n.takeTurn(f) })
	}
	f.turnTimer.Reset(wait)
	n.armWatchdog(f)
}

// armWatchdog guarantees liveness: if the flow goes silent with the batch
// incomplete, the node re-enters the schedule (staggered by priority).
func (n *Node) armWatchdog(f *exorFlow) {
	if f.watchdog == nil {
		f.watchdog = n.node.NewTimer(func() {
			if !n.batchDone(f) {
				n.takeTurn(f)
			}
		})
	}
	f.watchdog.Reset(sim.Time(f.k+2*len(f.prio)+2)*n.pktTime + sim.Time(f.myPrio+1)*n.pktTime)
}

// batchDone reports whether this node's map shows the destination holding
// the whole batch.
func (n *Node) batchDone(f *exorFlow) bool {
	if f.k == 0 {
		return false
	}
	for _, b := range f.bmap {
		if b != 0 {
			return false
		}
	}
	return true
}

// dstHolds counts packets the destination is known to hold.
func dstHolds(f *exorFlow) int {
	c := 0
	for _, b := range f.bmap {
		if b == 0 {
			c++
		}
	}
	return c
}

// takeTurn computes the fragment and starts transmitting it.
func (n *Node) takeTurn(f *exorFlow) {
	if f.myPrio < 0 || f.done || n.batchDone(f) && f.isSource {
		return
	}
	eligible := f.fragBuf[:0]
	for i := 0; i < f.k; i++ {
		if f.have[i] && int(f.bmap[i]) >= f.myPrio && f.bmap[i] != 0 {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 && !f.mapDirty {
		n.armWatchdog(f)
		return
	}
	f.fragBuf = eligible
	f.fragQueue = eligible
	if len(eligible) == 0 {
		// Map-only turn: the destination repeats its batch map to make it
		// survive losses; other nodes gossip once.
		if f.myPrio == 0 {
			f.gossipLeft = dstGossipRepeat
		} else {
			f.gossipLeft = 1
		}
	}
	f.inTurn = true
	n.TurnsTaken++
	n.node.Wake()
}

// startTurn is the source's initial entry into the schedule.
func (n *Node) startTurn(f *exorFlow) {
	f.mapDirty = true
	n.takeTurn(f)
}

// --- sim.Protocol ---------------------------------------------------------------

// Receive implements sim.Protocol.
func (n *Node) Receive(fr *sim.Frame) {
	switch m := fr.Payload.(type) {
	case *DataMsg:
		n.receiveData(m)
	case *CleanupMsg:
		n.receiveCleanup(fr, m)
	case *DoneMsg:
		n.receiveDone(fr, m)
	}
}

// maybeReannounce handles a repair-mode destination that keeps hearing
// data for a batch it already completed: the sender still advertising
// missing packets means the DoneMsg never made it back (it died on a route
// through a node that has since failed). Re-queue the completion and gossip
// the all-zero map again, at most once per RepairInterval.
func (n *Node) maybeReannounce(f *exorFlow, m *DataMsg) {
	if n.cfg.RepairInterval <= 0 || f.myPrio != 0 || !f.doneSent || m.Batch != f.batch || m.PktIdx < 0 {
		return
	}
	if n.node.Now()-f.reDoneAt < n.cfg.RepairInterval {
		return
	}
	behind := false
	for _, b := range m.BMap {
		if b != 0 {
			behind = true
			break
		}
	}
	if !behind {
		return
	}
	f.reDoneAt = n.node.Now()
	final := f.totalBatches > 0 && f.batch == f.totalBatches-1
	n.queueUnicast(&DoneMsg{Flow: f.id, Batch: f.batch, Final: final, Target: f.src}, f.src)
	f.mapDirty = true
	n.takeTurn(f)
}

func (n *Node) receiveData(m *DataMsg) {
	f := n.flowFor(m.Flow)
	n.maybeReannounce(f, m)
	if f.done {
		return
	}
	me := n.node.ID()
	if f.prio == nil || f.batch != m.Batch {
		// (Re)initialize from the packet (state born from first reception,
		// like MORE §3.3.2). The source manages its own batches.
		if f.isSource {
			if m.Batch != f.batch {
				return
			}
		} else {
			if f.batch > m.Batch {
				return // stale batch
			}
			f.src, f.dst = m.Src, m.Dst
			f.prio = m.Prio
			f.myPrio = -1
			for i, id := range m.Prio {
				if id == me {
					f.myPrio = i
				}
			}
			f.batch = m.Batch
			f.base = m.BatchBase
			f.k = m.K
			f.totalBatches = m.TotalBatches
			f.have = make([]bool, m.K)
			f.payload = make([][]byte, m.K)
			f.bmap = make([]uint8, m.K)
			for i := range f.bmap {
				f.bmap[i] = packet.BatchMapUnknown
			}
			f.cleanup = false
			f.cleanedIdx = make(map[int]bool)
			f.inTurn = false
			f.fragQueue = nil
			f.doneSent = false
		}
	}
	if m.Batch != f.batch {
		return
	}
	// Merge the sender's batch map.
	for i := 0; i < f.k && i < len(m.BMap); i++ {
		if m.BMap[i] < f.bmap[i] {
			f.bmap[i] = m.BMap[i]
			f.mapDirty = true
		}
	}
	if m.PktIdx >= 0 && m.PktIdx < f.k {
		if uint8(m.SenderPrio) < f.bmap[m.PktIdx] {
			f.bmap[m.PktIdx] = uint8(m.SenderPrio)
			f.mapDirty = true
		}
		if !f.have[m.PktIdx] && m.Payload != nil {
			n.hold(f, m.PktIdx, m.Payload)
			if f.myPrio >= 0 && uint8(f.myPrio) < f.bmap[m.PktIdx] {
				f.bmap[m.PktIdx] = uint8(f.myPrio)
				f.mapDirty = true
			}
		}
	}
	// A higher-priority transmission preempts our fragment.
	if f.inTurn && m.SenderPrio < f.myPrio {
		f.inTurn = false
		f.fragQueue = nil
	}
	n.sinkProgress(f)
	n.maybeCleanup(f)
	if n.batchDone(f) {
		n.onBatchDone(f)
		return
	}
	n.armTurn(f, m.SenderPrio, m.FragRemaining)
}

// hold keeps packet i of the current batch. The destination checks it
// against the file here, once, where it is first held.
func (n *Node) hold(f *exorFlow, i int, p []byte) {
	f.have[i] = true
	f.payload[i] = p
	if f.verify != nil && n.node.ID() == f.dst && !f.verify.Matches(f.base+i, p) {
		f.sinkRes.Verified = false
	}
}

// sinkProgress handles destination-side delivery accounting.
func (n *Node) sinkProgress(f *exorFlow) {
	if n.node.ID() != f.dst || f.k == 0 {
		return
	}
	if f.sinkRes.Start == 0 && f.sinkRes.PacketsDelivered == 0 {
		f.sinkRes.Start = n.node.Now()
		f.sinkRes.Src = f.src
	}
	count := 0
	for i := 0; i < f.k; i++ {
		if f.have[i] {
			count++
		}
	}
	total := f.base + count
	if total > f.sinkRes.PacketsDelivered {
		f.sinkRes.PacketsDelivered = total
		f.sinkRes.End = n.node.Now()
	}
	// Destination holds everything: announce completion.
	if count == f.k && !f.doneSent {
		f.doneSent = true
		n.node.Emit(telemetry.Event{
			Flow: uint32(f.id), Batch: uint32(f.batch), Aux: int64(count),
			Kind: telemetry.KindBatchDecode,
		})
		for i := range f.bmap {
			f.bmap[i] = 0
		}
		f.mapDirty = true
		final := f.totalBatches > 0 && f.batch == f.totalBatches-1
		n.queueUnicast(&DoneMsg{Flow: f.id, Batch: f.batch, Final: final, Target: f.src}, f.src)
		// Gossip the completed map so forwarders stop.
		n.takeTurn(f)
		if final && !f.done {
			f.done = true
			f.sinkRes.Completed = true
			if f.sinkDone != nil {
				f.sinkDone(f.sinkRes)
			}
		}
	}
}

// maybeCleanup enters the 90% cleanup phase: best-known holders unicast the
// packets the destination still misses along the ETX path.
func (n *Node) maybeCleanup(f *exorFlow) {
	if f.myPrio <= 0 || f.k == 0 {
		return // destination doesn't clean up to itself; non-participants idle
	}
	if float64(dstHolds(f)) < cleanupFraction*float64(f.k) {
		return
	}
	f.cleanup = true
	for i := 0; i < f.k; i++ {
		if f.bmap[i] == 0 || !f.have[i] || f.cleanedIdx[i] {
			continue
		}
		if int(f.bmap[i]) != f.myPrio {
			continue // someone closer holds it; they clean it up
		}
		f.cleanedIdx[i] = true
		n.queueUnicast(&CleanupMsg{
			Flow: f.id, Batch: f.batch, PktIdx: i, Target: f.dst, Payload: f.payload[i],
		}, f.dst)
	}
}

// queueUnicast enqueues a hop-by-hop unicast frame toward target.
func (n *Node) queueUnicast(payload interface{}, target graph.NodeID) {
	next := n.state.NextHop(n.node.ID(), target)
	if next < 0 {
		return
	}
	var bytes int
	var fid flow.ID
	switch m := payload.(type) {
	case *CleanupMsg:
		bytes = m.wireBytes()
		fid = m.Flow
	case *DoneMsg:
		bytes = m.wireBytes()
		fid = m.Flow
	}
	n.unicast = append(n.unicast, &sim.Frame{
		From: n.node.ID(), To: next, Bytes: bytes, Payload: payload, FlowID: uint32(fid),
	})
	n.node.Wake()
}

func (n *Node) receiveCleanup(fr *sim.Frame, m *CleanupMsg) {
	if fr.To != n.node.ID() {
		return
	}
	f := n.flowFor(m.Flow)
	if n.node.ID() == m.Target {
		if f.k > 0 && m.Batch == f.batch && m.PktIdx < f.k && !f.have[m.PktIdx] {
			n.hold(f, m.PktIdx, m.Payload)
			f.bmap[m.PktIdx] = 0
			f.mapDirty = true
			n.sinkProgress(f)
		}
		return
	}
	n.queueUnicast(m, m.Target)
}

func (n *Node) receiveDone(fr *sim.Frame, m *DoneMsg) {
	f := n.flowFor(m.Flow)
	// Anyone hearing the done message can mark the batch complete.
	if f.k > 0 && m.Batch == f.batch {
		for i := range f.bmap {
			f.bmap[i] = 0
		}
	}
	if fr.To != n.node.ID() {
		return
	}
	if n.node.ID() == m.Target {
		if f.isSource {
			n.sourceBatchComplete(f, m)
		}
		return
	}
	n.queueUnicast(m, m.Target)
}

func (n *Node) sourceBatchComplete(f *exorFlow, m *DoneMsg) {
	if f.done || m.Batch != f.batch {
		return
	}
	if f.batch+1 >= f.totalBatches {
		f.done = true
		f.result.Completed = true
		f.result.PacketsDelivered = f.result.PacketsTotal
		f.result.End = n.node.Now()
		if f.onDone != nil {
			f.onDone(f.result)
		}
		return
	}
	n.loadSourceBatch(f, f.batch+1)
	n.startTurn(f)
}

func (n *Node) onBatchDone(f *exorFlow) {
	// Stop transmitting this batch; state resets when the next batch (or a
	// DoneMsg round trip) arrives.
	f.inTurn = false
	f.fragQueue = nil
	if f.turnTimer != nil {
		f.turnTimer.Cancel()
	}
	if f.watchdog != nil {
		f.watchdog.Cancel()
	}
}

// HasControl reports whether hop-by-hop control traffic (cleanup, done
// messages) is queued — the congestion layer's full-queue pull hint (it
// implements congest.ControlReporter).
func (n *Node) HasControl() bool { return len(n.unicast) > 0 }

// Pull implements sim.Protocol: unicast control first, then fragment data.
func (n *Node) Pull() *sim.Frame {
	for len(n.unicast) > 0 {
		fr := n.unicast[0]
		n.unicast = n.unicast[:copy(n.unicast, n.unicast[1:])]
		// Drop stale cleanup for completed/advanced batches.
		if c, ok := fr.Payload.(*CleanupMsg); ok {
			f := n.flowFor(c.Flow)
			if f.k > 0 && (c.Batch != f.batch || f.bmap[c.PktIdx] == 0) {
				continue
			}
			n.CleanupTx++
		}
		return fr
	}
	for _, fid := range n.flowOrder {
		f := n.flows[fid]
		if !f.inTurn {
			continue
		}
		if len(f.fragQueue) == 0 {
			// Map-only gossip turn.
			f.gossipLeft--
			if f.gossipLeft <= 0 {
				f.inTurn = false
				f.mapDirty = false
			}
			n.MapOnly++
			return n.dataFrame(f, -1, f.gossipLeft)
		}
		idx := f.fragQueue[0]
		f.fragQueue = f.fragQueue[1:]
		remaining := len(f.fragQueue)
		if remaining == 0 {
			f.inTurn = false
			f.mapDirty = false
			n.armWatchdog(f)
		}
		n.DataSent++
		return n.dataFrame(f, idx, remaining)
	}
	return nil
}

// dataFrame frames the flow's packet idx (-1: map only) in a message off the
// node's free list, which keeps its batch-map storage: once the list is warm
// a data send allocates nothing.
func (n *Node) dataFrame(f *exorFlow, idx, remaining int) *sim.Frame {
	d := n.free.Get()
	*d = DataMsg{
		Flow: f.id, Src: f.src, Dst: f.dst,
		Batch: f.batch, K: f.k, BatchBase: f.base, TotalBatches: f.totalBatches,
		PktIdx: idx, FragRemaining: remaining, SenderPrio: f.myPrio,
		BMap: append(d.BMap[:0], f.bmap...),
		Prio: f.prio,
	}
	if idx >= 0 {
		d.Payload = f.payload[idx]
	}
	d.frame = sim.Frame{From: n.node.ID(), To: graph.Broadcast, Bytes: d.wireBytes(), Payload: d, FlowID: uint32(f.id)}
	return &d.frame
}

// poison is what a message Sent handed back holds on the free list: a
// sentinel flow, batch, packet index and priority, an empty map (its storage
// kept for the next send), no list, no payload, a zero frame. A read that
// outlives the frame finds nothing it can use.
func poison(m *DataMsg) {
	*m = DataMsg{
		Flow: releasedFlow, Src: -1, Dst: -1, Batch: -1, K: -1, BatchBase: -1, TotalBatches: -1,
		PktIdx: -1, FragRemaining: -1, SenderPrio: -1, BMap: m.BMap[:0],
	}
}

// Sent implements sim.Protocol.
func (n *Node) Sent(fr *sim.Frame, ok bool) {
	switch m := fr.Payload.(type) {
	case *CleanupMsg:
		if !ok {
			// Retry until the batch moves on. With repair on, re-resolve the
			// next hop instead of re-queuing the frame's original one: the
			// frame was addressed when first queued, and retrying a next hop
			// that has since died would spin until the deadline.
			f := n.flowFor(m.Flow)
			if f.k > 0 && m.Batch == f.batch && f.bmap[m.PktIdx] != 0 {
				if n.cfg.RepairInterval > 0 {
					n.queueUnicast(m, m.Target)
				} else {
					n.unicast = append(n.unicast, fr)
				}
			}
		}
	case *DoneMsg:
		if !ok {
			if n.cfg.RepairInterval > 0 {
				n.queueUnicast(m, m.Target)
			} else {
				n.unicast = append(n.unicast, fr)
			}
		}
	case *DataMsg:
		// Broadcast: every receiver has taken what it keeps.
		n.free.Put(m)
	}
	if len(n.unicast) > 0 {
		n.node.Wake()
		return
	}
	for _, fid := range n.flowOrder {
		if n.flows[fid].inTurn {
			n.node.Wake()
			return
		}
	}
}
