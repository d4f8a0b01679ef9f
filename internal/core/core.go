// Package core implements MORE — MAC-independent Opportunistic Routing &
// Encoding — the primary contribution of the thesis (Chapter 3).
//
// Every node runs one *Node attached to the simulator. A source breaks the
// file into batches of K native packets and, whenever the MAC offers a
// transmission opportunity, broadcasts a fresh random linear combination of
// the current batch (§3.1.1). Forwarders listen promiscuously: packets that
// list them in the forwarder list add TX credit (Eq. 3.3); innovative
// packets enter the batch buffer; when the MAC polls a forwarder with
// positive credit it broadcasts a pre-coded random recombination and
// decrements the counter (§3.2.1, §3.3.3). The destination admits packets
// the way a forwarder does, decodes once it holds K innovative ones (its
// decoder is a forwarder's buffer run to full rank), and sends a batch ACK
// back along the shortest ETX path — prioritized over data and reliably
// delivered hop by hop; every node that overhears the ACK purges the batch
// (§3.2.2).
//
// The implementation mirrors the practical machinery of §3.2–§3.3:
// innovation-gated buffering via row-echelon code vectors, pre-coding so a
// packet is ready when the medium clears, per-flow state initialized by the
// first overheard packet and expired on inactivity, forwarder pruning, and
// the compressed header format whose on-air size every frame is charged.
package core

import (
	"fmt"

	"repro/internal/coding"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ackRedundancy re-queues the batch ACK after this many redundant receptions
// of an already-decoded batch (the §3.3.2 stopping rule's guard against a
// lost ACK). No run varies it, so it is not a Config field.
const ackRedundancy = 8

// flowTimeout expires idle per-flow relay and sink state (§3.3.2 uses 5
// minutes); the sweep that enforces it runs every flowTimeout/2.
const flowTimeout = 5 * 60 * sim.Second

// Config parameterizes MORE.
type Config struct {
	// BatchSize is K, the number of native packets coded together
	// (default 32, §4.1.2).
	BatchSize int
	// PayloadSize is the native packet payload in bytes. The frame also
	// carries the MORE header; the paper uses 1500 B packets.
	PayloadSize int
	// Plan configures forwarder selection (metric, pruning, list bound).
	Plan routing.PlanOptions
	// RepairInterval arms a per-source stall watchdog: a source whose
	// current batch completes no batch for a full interval rebuilds its
	// forwarder plan unconditionally from the current routing state, so a
	// flow planned through a node that has since died replans instead of
	// broadcasting into the void until the deadline. Plan refreshes
	// otherwise happen only at batch boundaries — exactly the event a
	// stalled flow never reaches. Zero disables repair (the default).
	RepairInterval sim.Time
}

// DefaultConfig matches the deployed MORE parameters.
func DefaultConfig() Config {
	return Config{
		BatchSize:   32,
		PayloadSize: 1500,
		Plan:        routing.DefaultPlanOptions(),
	}
}

// DataMsg is the payload of a MORE data frame: the Fig 3-1 header fields
// plus the coded packet. Frames are charged the encoded header size plus the
// coded payload on the air.
type DataMsg struct {
	Flow  flow.ID
	Src   graph.NodeID
	Dst   graph.NodeID
	Batch uint32
	K     int
	// TotalBatches lets the destination recognize the final batch.
	TotalBatches int
	// Packet is the coded packet (code vector + payload). A relay's is
	// pending (coding.PreCoder.Take): a receiver reads it through CopyFrom
	// or Clone, and its size through pool.
	Packet *coding.Packet
	// Forwarders is the ordered candidate list with TX credits, copied
	// from the source's plan into every packet (§3.3.1) — by reference:
	// every packet and relay of a plan shares the source's one list.
	Forwarders *FwdList

	// pool is the free list Packet came from, and the shape every size
	// query reads; a receiver copies what it keeps into storage from it
	// (keep), and Sent puts the packet back there, even when the sender's
	// state has moved on to another shape or is gone.
	pool *coding.Pool

	// frame carries the message (dataFrame): message and frame are one
	// object, recycled once Sent hands the frame back (poison).
	frame sim.Frame
}

// releasedFlow is the Flow of a released message: no flow has it, so a read
// after release finds no state.
const releasedFlow = ^flow.ID(0)

// keep copies the coded packet into storage off its free list for a relay or
// a sink to store, combining it first if it is pending. Received frames are
// shared between all overhearing nodes, so a receiver never stores m.Packet
// itself, and it copies only a packet it has found innovative.
func (m *DataMsg) keep() *coding.Packet {
	q := m.pool.Get()
	q.CopyFrom(m.Packet)
	return q
}

// wireBytes returns the on-air frame size for the message. It reads the
// payload size from the pool's shape, so it never combines a pending payload.
func (m *DataMsg) wireBytes() int {
	return packet.MOREHeaderSize(len(m.Packet.Vector), len(m.Forwarders.Entries)) + m.pool.PayloadSize()
}

// AckMsg is the payload of a MORE batch ACK, unicast hop by hop along the
// reverse ETX path toward Target (the flow's source).
type AckMsg struct {
	Flow   flow.ID
	Batch  uint32
	Final  bool
	Target graph.NodeID
}

func (m *AckMsg) wireBytes() int {
	h := packet.MOREHeader{Type: packet.TypeACK}
	a := packet.ACK{}
	return h.EncodedSize() + a.EncodedSize()
}

// Node is the MORE protocol instance on one router.
type Node struct {
	cfg   Config
	node  *sim.Node
	state flow.RoutingState

	// Per-flow state by flow ID; nil where the node has none.
	sources flow.Table[*sourceState]
	relays  flow.Table[*relayState]
	sinks   flow.Table[*sinkState]

	// ackQueue holds ACKs awaiting transmission; they take priority over
	// data at every node (§3.2.2).
	ackQueue []*AckMsg

	// free holds data messages Sent handed back, for dataFrame to reuse.
	free sim.FreeList[DataMsg]

	// rr cycles among backlogged flows (§3.3.3 round-robin).
	rr []flow.ID

	// OnDeliver, when set, is called as each batch is decoded at this
	// node (it is the flow destination), with the native payloads in order.
	// natives are valid only for the duration of the call: the flow's next
	// batch is decoded into the same buffers. Copy what you keep.
	OnDeliver func(id flow.ID, batch uint32, natives [][]byte)

	// buffersTaken and buffersReleased count relay buffers drawn from and
	// handed back to their free lists; once the node is closed they agree.
	buffersTaken, buffersReleased int

	// Counters.
	DataSent      int64
	AcksSent      int64
	Innovative    int64
	NonInnovative int64
	CreditDenied  int64
}

// NewNode creates a MORE node; attach it with sim.Attach.
func NewNode(cfg Config, state flow.RoutingState) *Node {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	return &Node{cfg: cfg, state: state, free: sim.FreeList[DataMsg]{Reset: poison}}
}

// Init implements sim.Protocol.
func (n *Node) Init(sn *sim.Node) {
	n.node = sn
	n.scheduleSweep()
}

func (n *Node) scheduleSweep() {
	n.node.After(flowTimeout/2, func() {
		n.sweepStale()
		n.scheduleSweep()
	})
}

func (n *Node) sweepStale() {
	cutoff := n.node.Now() - flowTimeout
	for _, r := range n.relays.Rows() {
		if r != nil && r.lastActivity < cutoff {
			n.dropRelay(r)
		}
	}
	// A sink registered by ExpectFlow belongs to the application, not to
	// the soft state §3.3.2's timeout expires. Sweeping one that has not
	// heard its first packet yet, or has stalled, loses what it delivered,
	// and the next packet makes a fresh sink with no verifier, no callback
	// and no file size.
	for _, s := range n.sinks.Rows() {
		if s != nil && s.lastActivity < cutoff && !s.result.Completed && s.verify == nil {
			s.flush()
			*n.sinks.At(s.id) = nil
		}
	}
}

// Close hands every coded packet the node still holds — relay buffers,
// undecoded sink batches — back to its free list, and the relay buffers
// themselves to theirs, so the next simulation in the process reuses them
// instead of allocating. Call it once the run is over and its results are
// read: the node is left with no relays and with empty sinks.
func (n *Node) Close() {
	for _, r := range n.relays.Rows() {
		if r != nil {
			n.dropRelay(r)
		}
	}
	for _, s := range n.sinks.Rows() {
		if s != nil {
			s.flush()
		}
	}
}

// --- Source ------------------------------------------------------------------

type sourceState struct {
	id           flow.ID
	dst          graph.NodeID
	file         flow.File
	natives      [][]byte // the current batch, regenerated from file per batch
	totalBatches int
	curBatch     int
	src          *coding.Source // reloaded per batch while the shape stays the same
	pool         *coding.Pool   // coded packets come back in Sent, once off the air
	fwd          *FwdList
	done         bool
	onDone       func()
	// planVersion is the routing-state generation the forwarder plan was
	// built from; a learned view ticks it as estimates drift, and the
	// source rebuilds the plan at the next batch boundary.
	planVersion uint64
}

// StartFlow makes this node the source of a reliable file transfer to dst.
// It computes the forwarding plan (forwarder list, TX credits) from the
// routing state view and starts pumping coded packets. onDone, if non-nil,
// fires when the final batch is acked.
func (n *Node) StartFlow(id flow.ID, dst graph.NodeID, file flow.File, onDone func()) error {
	if n.sources.Get(id) != nil {
		return fmt.Errorf("core: duplicate flow %d", id)
	}
	plan, err := routing.BuildPlan(n.state.Graph(), n.node.ID(), dst, n.cfg.Plan)
	if err != nil {
		return fmt.Errorf("core: flow %d: %w", id, err)
	}
	total := file.NumPackets()
	if total == 0 {
		return fmt.Errorf("core: flow %d: empty file", id)
	}
	k := n.cfg.BatchSize
	st := &sourceState{
		id:           id,
		dst:          dst,
		file:         file,
		natives:      newRows(min(k, total), file.PacketSize(0)),
		totalBatches: (total + k - 1) / k,
		fwd:          fwdEntries(plan),
		onDone:       onDone,
		planVersion:  n.state.Version(),
	}
	if err := st.codeBatch(n); err != nil {
		return err
	}
	n.node.Emit(telemetry.Event{Flow: uint32(id), Kind: telemetry.KindBatchStart})
	*n.sources.At(id) = st
	n.rrAdd(id)
	if n.cfg.RepairInterval > 0 {
		n.node.WatchStall(n.cfg.RepairInterval,
			func() (int, bool) { return st.curBatch, st.done },
			func() { n.repairStalled(st) })
	}
	n.node.Wake()
	return nil
}

// newRows returns n zeroed rows of size bytes over one array.
func newRows(n, size int) [][]byte {
	buf := make([]byte, n*size)
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = buf[i*size : (i+1)*size : (i+1)*size]
	}
	return rows
}

// repairStalled is the stall watchdog's verdict for one source: a whole
// RepairInterval passed without a batch completing, so the forwarder plan is
// rebuilt from the current routing state regardless of version — the
// oracle ticks its version on invalidation, and a learned view may have
// purged a dead forwarder between batch boundaries, but refreshPlan only
// runs at boundaries a stalled flow never reaches.
func (n *Node) repairStalled(st *sourceState) {
	n.node.Emit(telemetry.Event{
		Flow: uint32(st.id), Batch: uint32(st.curBatch),
		Aux: telemetry.StallBatch, Kind: telemetry.KindStall,
	})
	st.planVersion = n.state.Version()
	if plan, err := routing.BuildPlan(n.state.Graph(), n.node.ID(), st.dst, n.cfg.Plan); err == nil {
		st.fwd = fwdEntries(plan)
		n.node.Emit(telemetry.Event{
			Flow: uint32(st.id), Batch: uint32(st.curBatch),
			Aux: telemetry.ReplanStall, Kind: telemetry.KindReplan,
		})
	}
	n.node.Wake()
}

// fwdEntries flattens a plan's forwarder list into the packet-header list.
func fwdEntries(plan *routing.Plan) *FwdList {
	fwd := make([]FwdEntry, 0, len(plan.Order))
	for _, fid := range plan.Forwarders() {
		fwd = append(fwd, FwdEntry{Node: fid, Credit: plan.Credit[fid]})
	}
	return NewFwdList(fwd)
}

// refreshPlan rebuilds the forwarder plan when the routing state has moved
// on since the plan was computed — a no-op under the static oracle (Version
// is constant 0), the periodic-recomputation path under learned link state.
// A failed rebuild (the drifted view momentarily lost the route) keeps the
// old plan rather than stalling the flow.
func (n *Node) refreshPlan(st *sourceState, dst graph.NodeID) {
	v := n.state.Version()
	if v == st.planVersion {
		return
	}
	st.planVersion = v
	if plan, err := routing.BuildPlan(n.state.Graph(), n.node.ID(), dst, n.cfg.Plan); err == nil {
		st.fwd = fwdEntries(plan)
		n.node.Emit(telemetry.Event{
			Flow: uint32(st.id), Aux: telemetry.ReplanDrift, Kind: telemetry.KindReplan,
		})
	}
}

// codeBatch points st.src at the current batch. The batch's packets are
// regenerated into the natives scratch, every row the size of the file's
// first packet: random linear coding needs equal-length symbols, so Fill
// zero-pads a short final packet, and the sink verifies only the real bytes.
// A batch of the shape the source already codes (every batch but a short
// last one) is reloaded into its kernel; another shape gets a new source.
// Either way the kernel copies the rows, so the scratch is free again at
// once. Coded packets come from st.pool, the free list of the batch's shape.
func (st *sourceState) codeBatch(n *Node) error {
	base := st.curBatch * n.cfg.BatchSize
	natives := st.natives[:min(len(st.natives), st.file.NumPackets()-base)]
	for i, row := range natives {
		st.file.Fill(base+i, row)
	}
	if st.src != nil && st.src.Reset(natives) == nil {
		return nil
	}
	src, err := coding.NewSource(natives, n.node.Rand())
	if err != nil {
		return err
	}
	st.pool = coding.NewPool(src.K(), src.PayloadSize())
	src.UsePool(st.pool)
	st.src = src
	return nil
}

// advanceBatch moves the source to the next batch after an ACK.
func (n *Node) advanceBatch(st *sourceState, acked uint32) {
	if st.done || int(acked) != st.curBatch {
		return
	}
	st.curBatch++
	if st.curBatch >= st.totalBatches {
		st.done = true
		if st.onDone != nil {
			st.onDone()
		}
		return
	}
	n.refreshPlan(st, st.dst)
	if err := st.codeBatch(n); err != nil {
		panic(err) // batches are validated at StartFlow
	}
	n.node.Emit(telemetry.Event{
		Flow: uint32(st.id), Batch: uint32(st.curBatch), Kind: telemetry.KindBatchStart,
	})
	n.node.Wake()
}

// --- Forwarder ---------------------------------------------------------------

type relayState struct {
	id           flow.ID
	src, dst     graph.NodeID
	curBatch     uint32
	ackedThrough int64 // highest batch known acked (-1 none)
	k            int
	buffer       *coding.Buffer // from pool, released by dropRelay or a shape change
	pre          *coding.PreCoder
	pool         *coding.Pool // the free lists of the current batch's shape
	credit       float64
	myCredit     float64
	fwdList      *FwdList // as last received, restated in recoded packets (§3.3.1)
	totalBatches int
	lastActivity sim.Time
}

func (n *Node) relayFor(m *DataMsg, myCredit float64) *relayState {
	r := n.relays.Get(m.Flow)
	if r == nil {
		r = &relayState{
			id:           m.Flow,
			src:          m.Src,
			dst:          m.Dst,
			curBatch:     m.Batch,
			ackedThrough: -1,
			myCredit:     myCredit,
		}
		r.resetBatch(n, m)
		*n.relays.At(m.Flow) = r
		n.rrAdd(m.Flow)
	}
	return r
}

// resetBatch points the relay at m's batch. The previous batch's packets go
// back onto their free list whatever the new batch's shape; a batch of the
// same shape reuses the buffer and pre-coder outright, another releases the
// buffer and takes one of its own shape. The shape is the sender's pool's
// (coding.NewPool has one handle per shape), so a pending payload stays
// uncombined.
func (r *relayState) resetBatch(n *Node, m *DataMsg) {
	r.curBatch = m.Batch
	r.k = m.K
	if r.buffer != nil {
		if r.pool == m.pool {
			r.flush()
			return
		}
		n.releaseBuffer(r)
	}
	r.pool = m.pool
	r.buffer = r.pool.GetBuffer()
	n.buffersTaken++
	r.pre = coding.NewPreCoder(r.buffer, n.node.Rand())
	r.credit = 0
}

// releaseBuffer hands the relay's buffer back to the free list of its shape
// and drops the relay's pointers to it, so it is released exactly once.
func (n *Node) releaseBuffer(r *relayState) {
	r.pool.PutBuffer(r.buffer)
	r.buffer, r.pre = nil, nil
	n.buffersReleased++
}

// dropRelay deletes a relay's state, releasing its buffer.
func (n *Node) dropRelay(r *relayState) {
	n.releaseBuffer(r)
	*n.relays.At(r.id) = nil
}

// flush purges the relay's batch (§3.2.2): its rows go back onto their
// free list, the prepared transmission with them, and its credit lapses.
func (r *relayState) flush() {
	r.buffer.Reset()
	r.credit = 0
}

// --- Destination -------------------------------------------------------------

type sinkState struct {
	id           flow.ID
	curBatch     uint32
	k            int
	totalBatches int
	decoder      *coding.Decoder // kept, flushed, for the next batch of its shape
	pool         *coding.Pool    // the free list of the current batch's shape
	redundant    int
	decodedUpTo  int64 // highest batch decoded (-1 none)
	lastActivity sim.Time
	result       flow.Result // the flow's one record (see flow.Result)
	onDone       func()
	verify       *flow.File // set by ExpectFlow; nil checks nothing
}

// ExpectFlow registers the receive side: optional completion callback and
// byte-exact verification of the delivered file. Registration is not
// required for operation (state initializes from the first packet, §3.3.2);
// it only wires up result reporting.
func (n *Node) ExpectFlow(id flow.ID, file flow.File, onDone func()) {
	s := n.sinkFor(id)
	s.onDone = onDone
	s.verify = &file
	s.result.PacketsTotal = file.NumPackets()
}

func (n *Node) sinkFor(id flow.ID) *sinkState {
	s := n.sinks.Get(id)
	if s == nil {
		s = &sinkState{id: id, decodedUpTo: -1}
		s.result.Dst = n.node.ID()
		s.result.Verified = true
		*n.sinks.At(id) = s
	}
	return s
}

// HasControl reports whether protocol control traffic (batch ACKs) is
// queued — the congestion layer's hint that a pull is worth making even at
// a full data queue (it implements congest.ControlReporter).
func (n *Node) HasControl() bool { return len(n.ackQueue) > 0 }

// TopUpRelayCredit raises this node's forwarder credit for the flow to at
// least c, provided the granter is downstream of this forwarder (its need
// is demand this forwarder's transmissions serve) and the forwarder is
// still working on exactly the given batch (it implements
// congest.CreditTopper). The congestion layer calls it when a downstream
// node grants credit — positive remaining need — so a forwarder chain
// whose Eq. (3.3) reception-driven credits drained can keep serving demand
// the receivers themselves advertised. Topping up to the granted need
// (rather than adding) keeps repeated grants idempotent: a forwarder never
// accumulates more rights than the latest word from downstream justifies.
func (n *Node) TopUpRelayCredit(id flow.ID, batch uint32, granter graph.NodeID, c float64) {
	r := n.relays.Get(id)
	if r == nil || r.buffer == nil || r.curBatch != batch || int64(batch) <= r.ackedThrough {
		return
	}
	if r.buffer.Rank() < r.k {
		// Only full-rank forwarders take grant credit: a partially filled
		// forwarder is still being fed reception-driven credit by the same
		// upstream traffic filling its buffer, and topping it up as well
		// would multiply every advertised need across the whole
		// neighborhood. The grant path exists for the frontier case — a
		// forwarder holding the complete batch whose credit drained while
		// downstream still needs packets.
		return
	}
	if granter != r.dst {
		// The forwarder list is ordered closest-to-destination first.
		granterIdx := r.fwdList.Index(granter)
		if granterIdx < 0 || granterIdx >= r.fwdList.Index(n.node.ID()) {
			return
		}
	}
	if r.credit < c {
		r.credit = c
	}
	if r.credit > 0 && r.buffer.Rank() > 0 {
		n.node.Wake()
	}
}

// BatchNeeded reports how many more innovative packets this node can
// absorb for the flow's current batch — the receive-side deficit the
// congestion layer's credit policy broadcasts as grants (it implements
// congest.NeedReporter). ok is false when the node holds no receive-side
// state for the flow (e.g. it is the source, or never heard the flow).
func (n *Node) BatchNeeded(id flow.ID) (batch uint32, needed int, ok bool) {
	if s := n.sinks.Get(id); s != nil {
		if s.decoder != nil && int64(s.curBatch) > s.decodedUpTo {
			return s.curBatch, s.k - s.decoder.Rank(), true
		}
		if s.decodedUpTo >= 0 {
			return uint32(s.decodedUpTo), 0, true
		}
		return 0, 0, false
	}
	if r := n.relays.Get(id); r != nil && r.buffer != nil {
		if int64(r.curBatch) <= r.ackedThrough {
			return r.curBatch, 0, true
		}
		return r.curBatch, r.k - r.buffer.Rank(), true
	}
	return 0, 0, false
}

// Result returns the flow's result as its destination keeps it: a zero
// Result on any other node.
func (n *Node) Result(id flow.ID) flow.Result {
	if s := n.sinks.Get(id); s != nil {
		return s.result
	}
	return flow.Result{}
}

// --- sim.Protocol ------------------------------------------------------------

// Receive implements sim.Protocol.
func (n *Node) Receive(f *sim.Frame) {
	switch m := f.Payload.(type) {
	case *DataMsg:
		n.receiveData(f, m)
	case *AckMsg:
		n.receiveAck(f, m)
	}
}

func (n *Node) receiveData(f *sim.Frame, m *DataMsg) {
	me := n.node.ID()
	if m.Dst == me {
		n.sinkReceive(m)
		return
	}
	if m.Src == me && n.sources.Get(m.Flow) != nil {
		return // our own flow echoed back through the mesh; ignore.
	}
	// Forwarder path: only if listed in the packet's forwarder list.
	myIdx := m.Forwarders.Index(me)
	if myIdx < 0 {
		return
	}
	myCredit := m.Forwarders.Entries[myIdx].Credit
	r := n.relayFor(m, myCredit)
	r.lastActivity = n.node.Now()
	r.myCredit = myCredit
	r.fwdList = m.Forwarders
	r.totalBatches = m.TotalBatches
	if int64(m.Batch) <= r.ackedThrough {
		return // stale batch already acked
	}
	if m.Batch < r.curBatch {
		return // older than the active batch: ignore (§3.3.3)
	}
	if m.Batch > r.curBatch {
		// Newer batch from the sender: flush buffered packets (§3.2.2).
		r.resetBatch(n, m)
	}
	innovative := r.buffer.Innovative(m.Packet.Vector)
	// Credit for receptions from upstream: the source or a forwarder
	// farther from the destination (listed after us). Eq. (3.3) credits
	// every upstream reception, innovative or not.
	if isUpstream(f.From, myIdx, m) {
		r.credit += r.myCredit
	}
	if innovative {
		r.buffer.Add(m.keep())
		n.Innovative++
		// Fold the fresh arrival into the prepared packet (§3.2.3(c)).
		r.pre.Update()
	} else {
		n.NonInnovative++
	}
	if r.credit > 0 && r.buffer.Rank() > 0 {
		n.node.Wake()
	}
}

// isUpstream reports whether sender is farther from the destination than
// the receiving forwarder, listed at myIdx in the packet's forwarder
// ordering (the source is the farthest).
func isUpstream(sender graph.NodeID, myIdx int, m *DataMsg) bool {
	if sender == m.Src {
		return true
	}
	if sender == m.Dst {
		return false
	}
	// Forwarder list is ordered by proximity to the destination, closest
	// first; a later index is farther, i.e. upstream of an earlier one.
	return m.Forwarders.Index(sender) > myIdx
}

func (n *Node) sinkReceive(m *DataMsg) {
	s := n.sinkFor(m.Flow)
	s.lastActivity = n.node.Now()
	s.totalBatches = m.TotalBatches
	s.result.Arrive(m.Src, n.node.Now())
	if int64(m.Batch) <= s.decodedUpTo {
		// Redundant packet from an already-decoded batch: the ACK must
		// have been lost — re-queue it every few receptions (§3.2.2).
		// This runs even after the flow is done: the source may still be
		// waiting on the final batch's ACK.
		s.redundant++
		if s.redundant%ackRedundancy == 0 {
			n.queueAck(s, uint32(s.decodedUpTo))
		}
		return
	}
	if s.result.Completed {
		return
	}
	if s.decoder == nil || m.Batch != s.curBatch {
		if m.Batch < s.curBatch {
			return
		}
		s.curBatch = m.Batch
		s.k = m.K
		// One decoder per flow: the last batch's decodes the next of its
		// shape, and hands back what it holds before any shape change.
		s.flush()
		if s.pool != m.pool {
			s.pool = m.pool
			s.decoder = coding.NewDecoder(m.K, s.pool.PayloadSize())
			s.decoder.UsePool(s.pool)
		}
	}
	// Admitted the way a relay admits (receiveData): the innovation check
	// reads the vector only, so a packet the sink already spans is never
	// copied, nor its payload combined if it is pending.
	if !s.decoder.Innovative(m.Packet.Vector) {
		return
	}
	if s.decoder.Add(m.keep()); !s.decoder.Complete() {
		return
	}
	// Kth innovative packet: ACK before decoding (§3.2.2), then decode.
	n.queueAck(s, m.Batch)
	natives, err := s.decoder.Decode()
	if err != nil {
		panic("core: decode of complete batch failed: " + err.Error())
	}
	s.decodedUpTo = int64(m.Batch)
	s.redundant = 0
	base := int(m.Batch) * n.cfg.BatchSize
	if s.verify != nil {
		// A native carries its packet and then the coding pad.
		for i, p := range natives {
			s.result.Check(s.verify.Matches(base+i, p[:min(s.verify.PacketSize(base+i), len(p))]))
		}
	}
	s.result.Deliver(s.result.PacketsDelivered+len(natives), n.node.Now())
	n.node.Emit(telemetry.Event{
		Flow: uint32(s.id), Batch: m.Batch, Aux: int64(len(natives)),
		Kind: telemetry.KindBatchDecode,
	})
	if n.OnDeliver != nil {
		n.OnDeliver(s.id, m.Batch, natives)
	}
	// Recycle the batch's stored packets and keep the decoder for the next
	// batch; the natives stay in its output buffers until that one decodes.
	s.decoder.Reset()
	if m.TotalBatches > 0 && int(m.Batch) == m.TotalBatches-1 {
		s.result.Completed = true
		if s.onDone != nil {
			s.onDone()
		}
	}
}

// flush hands the sink's undecoded packets back to their free list.
func (s *sinkState) flush() {
	if s.decoder != nil {
		s.decoder.Reset()
	}
}

// queueAck enqueues a batch ACK (prioritized over data) for hop-by-hop
// unicast delivery toward the flow source.
func (n *Node) queueAck(s *sinkState, batch uint32) {
	final := s.totalBatches > 0 && int(batch) == s.totalBatches-1
	n.enqueueAck(&AckMsg{Flow: s.id, Batch: batch, Final: final, Target: s.result.Src})
}

func (n *Node) enqueueAck(a *AckMsg) {
	for _, q := range n.ackQueue {
		if q.Flow == a.Flow && q.Batch == a.Batch && q.Target == a.Target {
			return // already queued
		}
	}
	n.ackQueue = append(n.ackQueue, a)
	n.node.Wake()
}

func (n *Node) receiveAck(f *sim.Frame, a *AckMsg) {
	// Every node that hears an ACK purges the batch (§3.2.2) — overheard
	// or addressed.
	if r := n.relays.Get(a.Flow); r != nil {
		if int64(a.Batch) > r.ackedThrough {
			r.ackedThrough = int64(a.Batch)
		}
		switch {
		case a.Final:
			n.dropRelay(r)
		case a.Batch >= r.curBatch:
			r.flush()
		}
	}
	if f.To != n.node.ID() {
		return
	}
	if src := n.sources.Get(a.Flow); src != nil && a.Target == n.node.ID() {
		n.advanceBatch(src, a.Batch)
		return
	}
	// Forward the ACK another hop toward the flow source.
	n.enqueueAck(a)
}

// Pull implements sim.Protocol: ACKs first, then round-robin over
// backlogged flows (§3.3.3).
func (n *Node) Pull() *sim.Frame {
	if len(n.ackQueue) > 0 {
		a := n.ackQueue[0]
		next := n.state.NextHop(n.node.ID(), a.Target)
		if next < 0 {
			n.ackQueue = n.ackQueue[:copy(n.ackQueue, n.ackQueue[1:])]
			return n.Pull()
		}
		f := &sim.Frame{
			From:    n.node.ID(),
			To:      next,
			Bytes:   a.wireBytes(),
			Payload: a,
			FlowID:  uint32(a.Flow),
		}
		return f
	}
	for range n.rr {
		// Rotate in place, so cycling a backlog never reallocates.
		id := n.rr[0]
		copy(n.rr, n.rr[1:])
		n.rr[len(n.rr)-1] = id
		if f := n.pullFlow(id); f != nil {
			return f
		}
	}
	return nil
}

func (n *Node) pullFlow(id flow.ID) *sim.Frame {
	if st := n.sources.Get(id); st != nil && !st.done {
		return n.dataFrame(DataMsg{
			Flow:         id,
			Src:          n.node.ID(),
			Dst:          st.dst,
			Batch:        uint32(st.curBatch),
			K:            st.src.K(),
			TotalBatches: st.totalBatches,
			Packet:       st.src.Next(),
			Forwarders:   st.fwd,
			pool:         st.pool,
		})
	}
	r := n.relays.Get(id)
	if r != nil && r.credit > 0 && r.buffer.Rank() > 0 {
		pkt := r.pre.Take()
		if pkt == nil {
			return nil
		}
		r.credit--
		return n.dataFrame(DataMsg{
			Flow:         id,
			Src:          r.src,
			Dst:          r.dst,
			Batch:        r.curBatch,
			K:            r.k,
			TotalBatches: r.totalBatches,
			Packet:       pkt,
			Forwarders:   r.fwdList,
			pool:         r.pool,
		})
	}
	if r != nil && r.credit <= 0 && r.buffer != nil && r.buffer.Rank() > 0 {
		n.CreditDenied++
	}
	return nil
}

// dataFrame frames m, the source's or a relay's next coded packet, in a
// message off the node's free list: once the list is warm a data send
// allocates nothing.
func (n *Node) dataFrame(m DataMsg) *sim.Frame {
	d := n.free.Get()
	*d = m
	d.frame = sim.Frame{From: n.node.ID(), To: graph.Broadcast, Bytes: d.wireBytes(), Payload: d, FlowID: uint32(m.Flow)}
	n.DataSent++
	return &d.frame
}

// poison is what a message Sent handed back holds on the free list: a
// sentinel flow and nodes, no packet, no list, a zero frame. It keeps no
// pointer, and a read that outlives the frame finds nothing it can use.
func poison(m *DataMsg) {
	*m = DataMsg{Flow: releasedFlow, Src: -1, Dst: -1, K: -1, TotalBatches: -1}
}

// Sent implements sim.Protocol.
func (n *Node) Sent(f *sim.Frame, ok bool) {
	switch m := f.Payload.(type) {
	case *AckMsg:
		// Remove from queue on success; keep retrying otherwise (§3.3.4:
		// unless the transmission succeeds the ACK is queued again).
		if ok {
			for i, q := range n.ackQueue {
				if q == m {
					n.ackQueue = append(n.ackQueue[:i], n.ackQueue[i+1:]...)
					break
				}
			}
			n.AcksSent++
		}
		if len(n.ackQueue) > 0 {
			n.node.Wake()
		}
	case *DataMsg:
		// Broadcasts always "succeed". The frame is off the air and every
		// receiver copied what it kept (DataMsg.keep), so the
		// coded packet goes back to the free list it came from, whether or
		// not the flow's state at this node still exists. The stopping rule
		// (ACKs, batch advance) governs whether more traffic exists.
		m.pool.Put(m.Packet)
		n.free.Put(m)
		n.wakeIfBacklogged()
	}
}

func (n *Node) wakeIfBacklogged() {
	if len(n.ackQueue) > 0 {
		n.node.Wake()
		return
	}
	for _, st := range n.sources.Rows() {
		if st != nil && !st.done {
			n.node.Wake()
			return
		}
	}
	for _, r := range n.relays.Rows() {
		if r != nil && r.credit > 0 && r.buffer != nil && r.buffer.Rank() > 0 {
			n.node.Wake()
			return
		}
	}
}

// rrAdd registers a flow in the round-robin cycle once.
func (n *Node) rrAdd(id flow.ID) {
	for _, v := range n.rr {
		if v == id {
			return
		}
	}
	n.rr = append(n.rr, id)
}
