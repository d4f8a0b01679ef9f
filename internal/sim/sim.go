package sim

import (
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Fixed PHY/MAC parameters. The paper runs every experiment on 802.11b
// hardware under one MAC (§4.1.2); nothing in the reproduction varies these,
// so they are constants rather than Config fields a struct literal could
// zero. SlotTime, DIFS and CWMin are exported because ExOR's schedule timers
// track the MAC's contention wait (exor.Init); SenseThreshold because the
// spatial-reuse pair search (experiments.SpatialReusePairs) must sense as
// the simulator does.
const (
	// basicRate is used for MAC ACK frames.
	basicRate = Rate2

	// SlotTime, sifs, DIFS are 802.11b MAC timings.
	SlotTime = 20 * Microsecond
	sifs     = 10 * Microsecond
	DIFS     = 50 * Microsecond

	// CWMin and cwMax bound the contention window (in slots).
	CWMin = 31
	cwMax = 1023

	// retryLimit is the maximum number of transmission attempts for a
	// unicast frame before the MAC reports failure.
	retryLimit = 7

	// macAckBytes is the size of a MAC-level ACK frame.
	macAckBytes = 14

	// SenseThreshold: node j's carrier sense detects i's transmission when
	// the delivery probability i->j at the reference rate exceeds this.
	SenseThreshold float64 = 0.01

	// interferenceThreshold: a concurrent transmission from k corrupts
	// reception at j when p(k->j) exceeds this (subject to capture).
	interferenceThreshold float64 = 0.01

	// captureMargin is the required strength difference in log-odds of the
	// delivery probabilities: frame from i survives interference from k at
	// receiver j when logit(p_ij) - logit(p_kj) >= captureMargin. Delivery
	// probability is a steep function of SINR, so log-odds distance is the
	// natural stand-in for the dB margin real capture needs.
	captureMargin float64 = 2.0

	// minFrameDivisor floors the effective size in the RefFrameBytes model:
	// even a tiny frame pays preamble detection and fading bursts, so its
	// delivery never beats that of a RefFrameBytes/10-byte frame.
	minFrameDivisor = 10
)

// Config parameterizes the simulated PHY and MAC: the per-run choices. The
// 802.11b timings, retry limit and interference/capture margins every run
// shares are the constants above.
type Config struct {
	// Seed drives all randomness in the run.
	Seed int64

	// DataRate is the rate for data frames unless a frame overrides it
	// (autorate does). The paper runs most experiments at 5.5 Mb/s (§4.1.2),
	// which zero defaults to.
	DataRate Bitrate

	// SenseRange, when positive, extends carrier sense by geometry: node j
	// also senses i when their positions are within this many meters.
	// 802.11 energy detection reaches well beyond the decodable range, so
	// realistic meshes are mostly carrier-sense connected even where no
	// usable link exists; leaving this zero keeps sensing purely
	// probability-based (useful for synthetic matrix topologies).
	SenseRange float64

	// CaptureEnabled allows the stronger of two overlapping frames to
	// survive at a receiver (§4.2.3 credits the capture effect for much of
	// MORE's gain on short paths).
	CaptureEnabled bool

	// RateAdjust maps the topology's reference-rate delivery probability
	// to the probability at the transmit rate. Nil keeps probabilities
	// rate-independent (fine when every frame uses the reference rate).
	RateAdjust func(pRef float64, rate Bitrate) float64

	// RefFrameBytes, when positive, makes delivery probability depend on
	// frame length: the topology's probabilities are taken as the frame
	// error behaviour of a RefFrameBytes-byte frame, and a b-byte frame
	// succeeds with p^(b/RefFrameBytes) — the independent-bit-error model.
	// Short frames (MAC ACKs, batch ACKs, probes, ExOR gossip) then ride
	// far more reliably than full data frames, as on real hardware. Zero
	// keeps delivery size-independent.
	RefFrameBytes int
}

// DefaultConfig returns the testbed setup: 5.5 Mb/s data frames, capture
// on.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		DataRate:       Rate5_5,
		CaptureEnabled: true,
	}
}

// Frame is a MAC-layer frame.
type Frame struct {
	From graph.NodeID
	// To is the MAC destination; graph.Broadcast means broadcast (no MAC
	// ACK, no retransmission).
	To graph.NodeID
	// Bytes is the on-air frame size including all headers.
	Bytes int
	// Rate overrides the configured data rate when nonzero.
	Rate Bitrate
	// Payload carries the protocol message. The simulator never inspects it.
	Payload interface{}

	// FlowID attributes the frame to an end-to-end flow for per-flow
	// transmission accounting (Counters.TxByFlow) and per-flow queueing in
	// the congestion layer. Zero marks control traffic (probes, LSAs,
	// credit grants) and unattributed frames.
	FlowID uint32

	// Piggyback carries control payloads riding this frame (opportunistic
	// LSA dissemination; see Piggybacker). Receivers scan it in addition
	// to Payload; the simulator never inspects it. Its bytes are already
	// folded into Bytes by the layer that attached them.
	Piggyback []interface{}

	// Retries is filled in by the MAC before the Sent callback: how many
	// retransmissions the frame needed (0 = first attempt succeeded).
	// Autorate algorithms feed on it.
	Retries int

	seq      uint64 // MAC sequence number for duplicate suppression
	isMACAck bool
	ack      *macAck // a MAC ACK's own record; it names the data frame acknowledged
}

// Counters aggregates statistics over a run.
type Counters struct {
	Transmissions    int64 // data frame transmission attempts (incl. retries)
	MACAcks          int64
	Deliveries       int64 // successful frame decodes (any addressee)
	Collisions       int64 // receptions destroyed by interference
	ChannelLosses    int64 // receptions lost to the Bernoulli channel draw
	UnicastSuccesses int64
	UnicastFailures  int64 // unicast frames dropped after retry limit
	AirTime          Time  // total on-air time of all transmissions
	// AirTimeByRate and TxByRate split AirTime and all transmissions (MAC
	// ACKs included) by bitrate. They are brought up to date when RunWhile
	// returns, not per frame.
	AirTimeByRate map[Bitrate]Time
	TxByRate      map[Bitrate]int64
	TxByNode      []int64
	// TxByFlow attributes data-frame transmissions (incl. MAC retries) to
	// the flow stamped on each frame; key 0 collects control traffic and
	// unattributed frames. Per-flow sums plus the 0 bucket always equal
	// Transmissions.
	TxByFlow map[uint32]int64
}

// Simulator is the event loop plus medium state.
type Simulator struct {
	cfg  Config
	topo *graph.Topology
	rng  *rand.Rand

	// The event core (event.go): the clock, the sequence counter every
	// firing key is drawn from, the two 4-ary min-heaps on (at, seq) — queue
	// for arbitrary delays, near for backoff and frame-end timers — the DIFS
	// lane, and how many pending firings are outside the heaps: lane entries
	// plus wake-FIFO keys behind their node's head.
	now                Time
	seq                uint64
	queue, near        []entry
	laneHead, laneTail *mac
	offHeap            int

	// nodes[i].mac is &macs[i]: a carrier edge reaches the MAC by index,
	// without loading the Node (5 % of learned-512's wall time).
	nodes []*Node
	macs  []mac

	// sense[i] is the set of nodes (i itself among them) whose carrier sense
	// detects a transmission by i: its out-neighbors above the sense threshold
	// plus, with SenseRange set, everything within range by geometry. Built
	// at i's first transmission from the topology as it stands then, like
	// relevant[i], so construction pays nothing; spatial is the grid the
	// geometric part is read from, made with the first row that needs it.
	sense   []graph.NodeSet
	spatial *graph.SpatialIndex

	// listening is the set of MACs in macContending, the only state in which
	// a carrier edge has anything to do (a pending DIFS or backoff implies
	// it); mac.setState is its one writer. A transmission's start and end
	// walk sense[from] AND listening, word by word, in ascending node order.
	//
	// busy[i] is node i's carrier-sense count — the transmissions on the air
	// that i can sense, its own included — and is defined only while i
	// listens: counted from s.active when i starts to (sensedBy), kept by the
	// walks from then on. Only the 0 -> 1 and 1 -> 0 edges concern the MAC
	// (carrierUp, carrierDown).
	listening graph.NodeSet
	busy      []int32

	// relevant[i] is the set of transmitters whose concurrent frames can
	// affect reception of i's frames at any of i's receivers: i's
	// out-neighbors (half-duplex) plus every node audible above the
	// interference threshold at one of them. Overlap tracking records only
	// these pairs; anything else could never change a reception outcome.
	// Built lazily, at i's first transmission and never again — nodes that
	// never transmit pay nothing.
	relevant []graph.NodeSet

	// probMemo[i] remembers scaleProb results for transmitter i's out-edges;
	// see linkProb. Rows are sized at a node's first transmission end, so
	// construction pays nothing.
	probMemo []linkMemo

	// interferers is endTransmission's scratch: for each transmission that
	// overlapped the ending one, what is left of its transmitter's out-edge
	// row from the receiver being resolved onwards (receptionOutcome).
	interferers [][]graph.Edge

	// active is what is on the air; txFree is the transmissions nothing
	// refers to any more (release), and ackFree the MAC ACK records whose
	// ACK is sent or given up.
	active   []*transmission
	txFree   FreeList[transmission]
	ackFree  FreeList[macAck]
	Counters Counters

	// rates is the per-bitrate air time and transmission count since
	// RunWhile last folded it into Counters: a frame adds to its rate's
	// record, found by a linear scan of the one to four rates a run uses,
	// instead of hashing its float64 rate into two maps.
	rates []rateTally

	// Telem, when set, receives a typed telemetry.Event per medium and
	// protocol event (see internal/telemetry). Nil costs one pointer check
	// per emission site and nothing else.
	Telem telemetry.Sink
}

// transmission is a frame in flight. Transmissions are recycled: one is held
// by s.active from start to end, and by the overlaps list of every
// transmission it overlapped until that one ends; refs counts exactly those
// holders, and release puts the object on s.txFree when the last lets go.
// Nothing else may keep a *transmission past the call it was handed to —
// a MAC ACK's record (macAck) remembers the data *Frame and the sender's ID
// instead.
type transmission struct {
	frame    *Frame
	from     *Node
	start    Time
	end      Time
	rate     Bitrate
	overlaps []*transmission // other transmissions overlapping in time
	refs     int32           // s.active while on the air + one per overlaps list holding it
	endEv    Event           // takes the frame off the air at end; bound once, when made
}

// rateTally is one bitrate's share of the frames since the last fold.
type rateTally struct {
	rate Bitrate
	air  Time
	tx   int64
}

// tally records a frame of dur at rate.
func (s *Simulator) tally(rate Bitrate, dur Time) {
	for i := range s.rates {
		if r := &s.rates[i]; r.rate == rate {
			r.air += dur
			r.tx++
			return
		}
	}
	s.rates = append(s.rates, rateTally{rate: rate, air: dur, tx: 1})
}

// foldRates adds the tallies to Counters.AirTimeByRate and TxByRate and
// starts them afresh.
func (s *Simulator) foldRates() {
	for _, r := range s.rates {
		s.Counters.AirTimeByRate[r.rate] += r.air
		s.Counters.TxByRate[r.rate] += r.tx
	}
	s.rates = s.rates[:0]
}

// release drops one holder of tx and recycles it with the last.
func (s *Simulator) release(tx *transmission) {
	if tx.refs--; tx.refs == 0 {
		s.txFree.Put(tx)
	}
}

// New creates a simulator over the topology.
func New(topo *graph.Topology, cfg Config) *Simulator {
	if cfg.DataRate == 0 {
		cfg.DataRate = Rate5_5
	}
	s := &Simulator{
		cfg:  cfg,
		topo: topo,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	s.Counters.AirTimeByRate = make(map[Bitrate]Time)
	s.Counters.TxByRate = make(map[Bitrate]int64)
	s.Counters.TxByNode = make([]int64, topo.N())
	s.Counters.TxByFlow = make(map[uint32]int64)
	s.nodes = make([]*Node, topo.N())
	s.macs = make([]mac, topo.N())
	for i := range s.nodes {
		s.nodes[i] = newNode(s, graph.NodeID(i))
	}
	s.sense = make([]graph.NodeSet, topo.N())
	s.listening = graph.NewNodeSet(topo.N())
	s.busy = make([]int32, topo.N())
	s.relevant = make([]graph.NodeSet, topo.N())
	s.probMemo = make([]linkMemo, topo.N())
	// A recycled object keeps its event, bound once when it is made: the
	// closure is per object, not per frame on the air. Reset clears what
	// points elsewhere (a transmission's frame is cleared when it leaves the
	// air), so a reference that outlived the object faults instead of
	// reading another frame's transmitter or ACK.
	s.txFree.New = func() *transmission {
		tx := new(transmission)
		tx.endEv.initNear(s, func() { s.endTransmission(tx) })
		return tx
	}
	s.txFree.Reset = func(tx *transmission) { tx.from = nil }
	s.ackFree.New = func() *macAck {
		a := new(macAck)
		a.wait.init(s, a.send)
		return a
	}
	s.ackFree.Reset = func(a *macAck) { a.m, a.data = nil, nil }
	return s
}

// senseOf returns (building on first use) the set of nodes whose carrier
// sense hears transmitter id: id itself, its out-neighbors above the sense
// threshold, and (when SenseRange is set) everything within range by
// geometry, found through a spatial grid rather than an all-pairs scan.
func (s *Simulator) senseOf(id graph.NodeID) graph.NodeSet {
	if set := s.sense[id]; set != nil {
		return set
	}
	set := graph.NewNodeSet(s.topo.N())
	set.Add(id)
	for _, e := range s.topo.OutEdges(id) {
		if e.P > SenseThreshold {
			set.Add(e.Node)
		}
	}
	if s.cfg.SenseRange > 0 {
		if s.spatial == nil {
			s.spatial = graph.NewSpatialIndex(s.topo.Pos, s.cfg.SenseRange)
		}
		for _, near := range s.spatial.Near(id, s.cfg.SenseRange) {
			set.Add(near)
		}
	}
	s.sense[id] = set
	return set
}

// sensedBy counts the transmissions on the air that node id can sense: what
// busy[id] must read when id starts listening.
func (s *Simulator) sensedBy(id graph.NodeID) int32 {
	var c int32
	for _, tx := range s.active {
		if s.sense[tx.from.id].Has(id) {
			c++
		}
	}
	return c
}

// relevantTo returns (building on first use) the set of transmitters whose
// overlapping frames can influence reception of id's frames.
func (s *Simulator) relevantTo(id graph.NodeID) graph.NodeSet {
	if r := s.relevant[id]; r != nil {
		return r
	}
	// The per-receiver interference check compares the rate-ADJUSTED
	// probability against the threshold; robust rates can adjust a link
	// above its reference probability, so pre-filtering on the reference
	// value is only exact for a rate-independent channel. With RateAdjust
	// installed, admit every audible link and let the per-receiver check
	// decide.
	thresh := interferenceThreshold
	if s.cfg.RateAdjust != nil {
		thresh = 0
	}
	r := graph.NewNodeSet(s.topo.N())
	for _, e := range s.topo.OutEdges(id) {
		r.Add(e.Node) // half-duplex: a busy receiver misses us
		for _, in := range s.topo.InEdges(e.Node) {
			if in.Node != id && in.P > thresh {
				r.Add(in.Node)
			}
		}
	}
	s.relevant[id] = r
	return r
}

// Node returns the node with the given ID.
func (s *Simulator) Node(id graph.NodeID) *Node { return s.nodes[id] }

// Config returns the active configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Attach installs a protocol on a node and calls its Init hook.
func (s *Simulator) Attach(id graph.NodeID, p Protocol) {
	n := s.nodes[id]
	n.proto = p
	p.Init(n)
}

// FailNode silences a node permanently, modelling a mid-run crash or power
// loss: the node initiates no further transmissions (pending contention and
// retries are abandoned) and decodes nothing it would have received. A frame
// already on the air completes — a dying radio's last frame still lands —
// but its MAC-level outcome is never reported to the dead node's protocol.
// Callers that want routing to learn the loss should also remove the node's
// links from the topology (the simulator reads delivery probabilities live;
// a carrier-sense set is the reach its transmitter had at its first frame,
// and the dead node's own matters only for frames it no longer sends).
func (s *Simulator) FailNode(id graph.NodeID) {
	n := s.nodes[id]
	if n.failed {
		return
	}
	n.failed = true
	n.mac.silence()
	if s.Telem != nil {
		s.Telem.Emit(telemetry.Event{At: int64(s.now), Node: int32(id), Kind: telemetry.KindNodeFail})
	}
}

// RecoverNode revives a node silenced by FailNode, modelling a reboot: the
// radio comes back with fresh MAC state (contention window at CWMin, empty
// duplicate-suppression memory, monotonic sequence counter preserved) and
// starts decoding and contending again. The protocol object was never
// detached, so its state survives; protocol timers that kept firing while
// the node was dead (probes, LSA advertisements) resume doing useful work
// on their next tick. Callers that removed the node's links on failure
// should pair this with graph.Topology.Restore so the links return with
// the radio. Recovering a live node is a no-op.
func (s *Simulator) RecoverNode(id graph.NodeID) {
	n := s.nodes[id]
	if !n.failed {
		return
	}
	n.failed = false
	n.mac.revive()
	if s.Telem != nil {
		s.Telem.Emit(telemetry.Event{At: int64(s.now), Node: int32(id), Kind: telemetry.KindNodeRecover})
	}
	// The protocol may have had traffic queued all along; give it a
	// transmission opportunity now that wakes work again.
	n.Wake()
}

// Run processes events until the queue empties or the deadline passes.
// It returns the time of the last processed event.
func (s *Simulator) Run(until Time) Time {
	return s.RunWhile(until, nil)
}

// RunWhile processes events until the queue empties, the deadline passes,
// or cond (if non-nil) returns false. cond is checked after every event.
func (s *Simulator) RunWhile(until Time, cond func() bool) Time {
	for {
		e, m := s.next(until)
		if e != nil {
			e.fn()
		} else if m != nil {
			m.difsDone()
		} else {
			break
		}
		if cond != nil && !cond() {
			break
		}
	}
	if s.now > until {
		s.now = until
	}
	s.foldRates()
	return s.now
}

// Pending reports how many events are queued.
func (s *Simulator) Pending() int { return len(s.queue) + len(s.near) + s.offHeap }

// adjustProb maps a reference-rate delivery probability to the frame's rate
// and size.
func (s *Simulator) adjustProb(p float64, rate Bitrate, bytes int) float64 {
	return s.scaleProb(p, rate, s.effectiveBytes(bytes))
}

// effectiveBytes is the size the frame-length model charges a frame of the
// given size: at least RefFrameBytes/minFrameDivisor — or 0 when size does
// not move the probability: no RefFrameBytes, a sizeless query, or exactly
// the reference size (an exponent of one).
func (s *Simulator) effectiveBytes(bytes int) int {
	if s.cfg.RefFrameBytes <= 0 || bytes <= 0 || bytes == s.cfg.RefFrameBytes {
		return 0
	}
	return max(bytes, s.cfg.RefFrameBytes/minFrameDivisor)
}

// scaleProb is adjustProb on an effective size.
func (s *Simulator) scaleProb(p float64, rate Bitrate, effBytes int) float64 {
	if s.cfg.RateAdjust != nil {
		p = s.cfg.RateAdjust(p, rate)
	}
	if effBytes > 0 && p > 0 && p < 1 {
		p = math.Pow(p, float64(effBytes)/float64(s.cfg.RefFrameBytes))
	}
	return p
}

// probSlot is one memoised scaleProb call: its arguments and its result.
type probSlot struct {
	pRef     float64
	rate     Bitrate
	effBytes int
	val      float64
}

func (p *probSlot) holds(pRef float64, rate Bitrate, effBytes int) bool {
	return p.pRef == pRef && p.rate == rate && p.effBytes == effBytes
}

// linkMemo is one transmitter's memo: for its k-th out-edge, the scaleProb
// call made last and the different one made before it.
type linkMemo struct {
	recent []probSlot
	older  []probSlot // made at the transmitter's first miss in recent
}

// probRow returns transmitter id's memo, grown to cover k out-edges.
func (s *Simulator) probRow(id graph.NodeID, k int) *linkMemo {
	m := &s.probMemo[id]
	if len(m.recent) < k {
		*m = linkMemo{recent: make([]probSlot, k)}
	}
	return m
}

// linkProb is scaleProb(pRef, rate, effBytes) through the memo of a
// transmitter's k-th out-edge. Control frames dominate large runs and nearly
// all share one effective size (an LSA of up to 47 neighbors is under the
// RefFrameBytes/minFrameDivisor floor), so the math.Pow per receiver becomes
// three compares on the recent row and the older row is never made. A node
// on a unicast path alternates data frames with the MAC ACKs for the ones it
// receives — two sizes and two rates, turn by turn (40 % of fig4-2's Srcr
// lookups) — which is what the older row catches. The slots cache a pure
// function of their key — RateAdjust and RefFrameBytes are fixed for the run
// — so they stay exact when topology mutators move or change the edge they
// sit beside: a shifted row just misses.
func (s *Simulator) linkProb(m *linkMemo, k int, pRef float64, rate Bitrate, effBytes int) float64 {
	if effBytes == 0 && s.cfg.RateAdjust == nil {
		return pRef // nothing to scale by, nothing to remember
	}
	a := &m.recent[k]
	if a.holds(pRef, rate, effBytes) {
		return a.val
	}
	if m.older == nil {
		m.older = make([]probSlot, len(m.recent))
	}
	b := &m.older[k]
	if !b.holds(pRef, rate, effBytes) {
		*b = probSlot{pRef, rate, effBytes, s.scaleProb(pRef, rate, effBytes)}
	}
	*a, *b = *b, *a
	return a.val
}

// startTransmission puts a frame on the air from node n.
func (s *Simulator) startTransmission(n *Node, f *Frame) {
	rate := f.Rate
	if rate == 0 {
		if f.isMACAck {
			rate = basicRate
		} else {
			rate = s.cfg.DataRate
		}
		f.Rate = rate
	}
	dur := AirTime(f.Bytes, rate)
	tx := s.txFree.Get()
	tx.frame, tx.from, tx.rate = f, n, rate
	tx.start, tx.end = s.now, s.now+dur
	tx.refs = 1 // s.active
	// Record overlaps with everything already on the air — but only where
	// the overlap could change a reception outcome: other's transmitter
	// must be relevant to us (it interferes at one of our receivers or is
	// one of them), and vice versa. Pairs failing both tests are provably
	// outcome-neutral, so skipping them keeps results byte-identical while
	// bounding overlap lists by the two-hop neighborhood, not N.
	relTx := s.relevantTo(n.id)
	for _, other := range s.active {
		if relTx.Has(other.from.id) {
			tx.overlaps = append(tx.overlaps, other)
			other.refs++
		}
		if s.relevantTo(other.from.id).Has(n.id) {
			other.overlaps = append(other.overlaps, tx)
			tx.refs++
		}
	}
	s.active = append(s.active, tx)
	n.mac.onAir++

	if f.isMACAck {
		s.Counters.MACAcks++
	} else {
		s.Counters.Transmissions++
		s.Counters.TxByNode[n.id]++
		s.Counters.TxByFlow[f.FlowID]++
	}
	s.Counters.AirTime += dur
	s.tally(rate, dur)

	if s.Telem != nil {
		var ack int64
		if f.isMACAck {
			ack = 1
		}
		s.Telem.Emit(telemetry.Event{
			At: int64(s.now), Dur: int64(dur), Aux: ack,
			Flow: f.FlowID, Node: int32(n.id), Peer: int32(f.To),
			Bytes: int32(f.Bytes), Kind: telemetry.KindTx,
		})
	}

	s.carrierStart(s.senseOf(n.id))

	s.armAt(&tx.endEv, tx.end)
}

// endTransmission takes the frame off the air and resolves reception at
// every node.
func (s *Simulator) endTransmission(tx *transmission) {
	for i, a := range s.active {
		if a == tx {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
	s.carrierEnd(s.sense[tx.from.id])

	// Resolve reception at the transmitter's out-neighbors — the only nodes
	// with nonzero delivery probability. Ascending neighbor order keeps the
	// RNG draw sequence identical to the old whole-population scan, which
	// skipped zero-probability receivers before drawing.
	out := s.topo.OutEdges(tx.from.id)
	memo := s.probRow(tx.from.id, len(out))
	effBytes := s.effectiveBytes(tx.frame.Bytes)
	s.interferers = s.interferers[:0]
	for _, other := range tx.overlaps {
		s.interferers = append(s.interferers, s.topo.OutEdges(other.from.id))
	}
	for k, e := range out {
		rcv := s.nodes[e.Node]
		if rcv.failed {
			continue // a dead radio decodes nothing (and draws no RNG)
		}
		outcome := s.receptionOutcome(tx, rcv, s.linkProb(memo, k, e.P, tx.rate, effBytes))
		switch outcome {
		case rxOK:
			s.Counters.Deliveries++
			rcv.mac.deliver(tx)
		case rxCollision:
			s.Counters.Collisions++
		case rxChannelLoss:
			s.Counters.ChannelLosses++
		case rxOutOfRange:
		}
		if s.Telem != nil && outcome != rxOutOfRange {
			ev := telemetry.Event{
				At: int64(s.now), Flow: tx.frame.FlowID,
				Node: int32(rcv.id), Peer: int32(tx.from.id),
				Bytes: int32(tx.frame.Bytes),
			}
			switch outcome {
			case rxOK:
				ev.Kind = telemetry.KindRx
			case rxCollision:
				ev.Kind, ev.Aux = telemetry.KindDrop, telemetry.DropCollision
			case rxChannelLoss:
				ev.Kind, ev.Aux = telemetry.KindDrop, telemetry.DropChannel
			}
			s.Telem.Emit(ev)
		}
	}
	tx.from.mac.onAir--
	tx.from.mac.txFinished(tx)

	// The frame is off the air: tx lets go of it (a MAC ACK's goes back to
	// its free list). Nothing reads a finished transmission's own overlap
	// list again either: let go of what it holds (keeping the list's
	// capacity), then of s.active's hold on tx itself. tx lives on, as a
	// time span and a transmitter, while a later starter still lists it.
	if tx.frame.isMACAck {
		s.ackFree.Put(tx.frame.ack)
	}
	tx.frame = nil
	for i, other := range tx.overlaps {
		s.release(other)
		tx.overlaps[i] = nil
	}
	tx.overlaps = tx.overlaps[:0]
	s.release(tx)
}

// logit maps a probability to log-odds, clamped for the extremes.
func logit(p float64) float64 {
	if p <= 1e-6 {
		return -14
	}
	if p >= 1-1e-6 {
		return 14
	}
	return math.Log(p / (1 - p))
}

type rxOutcome int

const (
	rxOK rxOutcome = iota
	rxOutOfRange
	rxChannelLoss
	rxCollision
)

// receptionOutcome decides whether receiver rcv decodes transmission tx. p
// is the delivery probability of the tx.from -> rcv link at the frame's rate
// and size, supplied by the caller's neighbor iteration. The caller visits
// receivers in ascending ID and every out-edge row is sorted the same way, so
// an interferer's link to rcv is found by moving a cursor along its row
// (s.interferers[i], for tx.overlaps[i]) — a merge, not a search per pair.
func (s *Simulator) receptionOutcome(tx *transmission, rcv *Node, p float64) rxOutcome {
	if p <= 0 {
		return rxOutOfRange
	}
	// A half-duplex radio cannot receive while transmitting.
	for _, other := range tx.overlaps {
		if other.from.id == rcv.id {
			return rxCollision
		}
	}
	// Interference from overlapping transmissions audible at rcv.
	for i, other := range tx.overlaps {
		row := s.interferers[i]
		for len(row) > 0 && row[0].Node < rcv.id {
			row = row[1:]
		}
		s.interferers[i] = row
		pi := 0.0 // no link from the interferer to rcv
		if len(row) > 0 && row[0].Node == rcv.id {
			pi = row[0].P
		}
		// Interference strength uses the raw (reference) probability: a
		// loud neighbor corrupts regardless of its own frame's length.
		pi = s.adjustProb(pi, other.rate, 0)
		if pi <= interferenceThreshold {
			continue
		}
		if s.cfg.CaptureEnabled && logit(p)-logit(pi) >= captureMargin {
			continue // captured: our frame is much stronger at rcv
		}
		return rxCollision
	}
	if s.rng.Float64() >= p {
		return rxChannelLoss
	}
	return rxOK
}
