// Package congest is the congestion-control subsystem MORE deliberately
// ships without (the paper notes the lack; the PR 2 scaling sweep shows the
// cost: transmissions-per-packet exploding past ~500 nodes under multi-flow
// load as hidden-terminal collisions compound). It layers a pluggable
// congestion layer between each node's routing protocol and its MAC:
//
//   - a bounded per-node transmit queue with a selectable drop policy —
//     plain tail drop, or a CHOKe-style fair AQM that, on overflow, compares
//     the arriving frame against a randomly chosen queued frame and drops
//     both when they belong to the same flow (Pan, Prabhakar & Psounis,
//     INFOCOM'00), penalizing whichever flow dominates the queue;
//   - credit-based forwarder pacing for MORE: every node that holds batch
//     state broadcasts small credit grants advertising how many more
//     innovative packets it can still use (K minus its current rank);
//     upstream nodes stop transmitting a batch once every downstream
//     listener they can hear reports zero need, and a positive grant tops
//     a full-rank forwarder's Eq. (3.3) credit back up so suppression
//     upstream cannot starve the frontier — receiver-driven flow control
//     that throttles the innovation-less retransmission storms the
//     open-loop credits cannot see.
//
// The layer implements sim.Protocol and wraps the data protocol, so control
// traffic the protocol prioritizes internally (batch ACKs, NACKs, LSAs in a
// sibling stack layer) bypasses the data queue, and everything the layer
// emits contends for the real medium. With Policy None no layer is
// installed at all — runs are byte-identical to the pre-congestion code
// (pinned by scenario.TestGoldenScenarios).
package congest

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exor"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/srcr"
	"repro/internal/telemetry"
)

// Policy selects the congestion-control mechanism.
type Policy int

const (
	// None installs no congestion layer (byte-identical baseline).
	None Policy = iota
	// Tail bounds the transmit queue with plain tail drop.
	Tail
	// Choke is Tail plus CHOKe-style fair dropping at overflow: the
	// arriving frame is compared against a random queued frame and both are
	// dropped when they share a flow.
	Choke
	// Credit adds receiver-driven pacing on top of the bounded queue:
	// downstream nodes grant credits (their remaining rank deficit) and
	// upstream nodes stop transmitting a batch its listeners cannot use.
	Credit
)

// policyNames is the one table of policy spellings, indexed by Policy: the
// -cc flag, the spec's cc.policy key, -json output and every error message
// that lists the admitted set read it.
var policyNames = [...]string{None: "none", Tail: "tail", Choke: "choke", Credit: "credit"}

// Policies lists every policy, in declaration order.
func Policies() []Policy {
	out := make([]Policy, len(policyNames))
	for i := range out {
		out[i] = Policy(i)
	}
	return out
}

// String renders the -cc flag spelling of the policy.
func (p Policy) String() string {
	if p < 0 || int(p) >= len(policyNames) {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyNames[p]
}

// MarshalText lets Policy fields render readably in -json output.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses the MarshalText form back (JSON round trips).
func (p *Policy) UnmarshalText(text []byte) error {
	v, err := ParsePolicy(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// ParsePolicy parses a -cc flag value; the empty string is None.
func ParsePolicy(s string) (Policy, error) {
	if s == "" {
		return None, nil
	}
	for p, name := range policyNames {
		if s == name {
			return Policy(p), nil
		}
	}
	return 0, fmt.Errorf("congest: unknown policy %q (want %s)", s, strings.Join(policyNames[:], ", "))
}

// Fixed tuning of the credit policy. The comparisons the layer exists for
// vary the policy at fixed queue parameters (as the AQM literature does), so
// the grant timers and the credit floor are not Config fields.
const (
	// gateTimeout is the base interval at which a credit-gated flow still
	// releases a single probe transmission (the interval doubles while
	// nothing changes, up to 32×) — the liveness escape hatch when grants
	// or batch ACKs are lost.
	gateTimeout = 60 * sim.Millisecond
	// needAdvertiseMax bounds the per-change positive grants: a granter
	// re-advertises every change of its remaining need only once the need
	// is at most this. Larger needs are announced once per batch; the
	// endgame countdown — the part that decides gating — stays fresh
	// without a grant per innovative reception.
	needAdvertiseMax = 8
	// grantRefresh re-advertises a zero need at most this often while
	// traffic for the completed batch keeps arriving — the retransmission
	// path for a lost stop signal, self-limiting because it is driven by
	// the very traffic it suppresses.
	grantRefresh = 150 * sim.Millisecond
	// grantMinInterval floors the spacing between a granter's successive
	// grants for one flow. Only the gating transitions — need hitting zero
	// or reappearing — bypass it: every broadcast reception is a grant
	// opportunity at every listener, so without a floor the endgame
	// countdown multiplies across the neighborhood into a grant storm that
	// feeds the very congestion it should damp.
	grantMinInterval = 50 * sim.Millisecond
	// grantTTL expires a grant's word: a zero-need grant older than this no
	// longer gates the sender. A suppressed flow's own residual traffic
	// refreshes live zeros every grantRefresh, so the gate holds exactly as
	// long as the granter keeps restating it — and a silence deep enough to
	// stop the refreshes releases the flow instead of stranding it on probe
	// backoff.
	grantTTL = 500 * sim.Millisecond

	// creditMinK floors the batch rank the Credit machinery engages at:
	// MORE batches with K below the floor bypass grants and gating entirely
	// and run over the plain bounded queue. In a batch this small the whole
	// transfer is "endgame" — the grant/probe machinery's own frames and
	// probe backoffs outweigh any suppression savings, inverting the result
	// credit wins at K = 32 (the sub-batch workload regression the scaling
	// sweeps flagged). For K at or above the floor the endgame-countdown
	// threshold (needAdvertiseMax) additionally scales as K/4 so the grant
	// count per batch stays a constant fraction of the batch.
	creditMinK = 16
)

// Config parameterizes the congestion layer.
type Config struct {
	// Policy selects the mechanism; None disables the layer entirely.
	Policy Policy
	// QueueLen bounds the per-node data transmit queue (default 2). The
	// default is deliberately shallow: frames are generated at pull time,
	// so a deep queue sends coded packets whose recombination predates the
	// node's latest receptions — measurably redundant downstream. Two
	// slots give the AQM policies a queue to manage without replicating
	// the §4.1.2 50-packet driver queue's staleness at MORE's expense
	// (the -cc-queue sweep in PERFORMANCE.md quantifies the cost of
	// deeper queues).
	QueueLen int
}

// DefaultConfig returns the given policy with default knobs.
func DefaultConfig(p Policy) Config {
	return Config{Policy: p}
}

func (c *Config) fillDefaults() {
	if c.QueueLen <= 0 {
		c.QueueLen = 2
	}
}

// Stats counts what the layer did to the traffic passing through it.
type Stats struct {
	// Pushed counts frames injected by push sources (sim.FrameSink), before
	// the drop policy ruled on them.
	Pushed int64
	// Enqueued counts data frames accepted into the queue.
	Enqueued int64
	// TailDrops counts frames dropped because the queue was full.
	TailDrops int64
	// ChokeDrops counts frames dropped by the CHOKe same-flow comparison
	// (both members of each dropped pair are counted).
	ChokeDrops int64
	// StaleDrops counts queued frames dropped because their flow moved to
	// a newer batch before they reached the air.
	StaleDrops int64
	// GrantTx counts credit-grant broadcasts sent.
	GrantTx int64
	// GateSkips counts transmission opportunities a gated frame declined.
	GateSkips int64
	// ProbeSends counts gated transmissions released by the gateTimeout
	// liveness escape.
	ProbeSends int64
}

// Add accumulates s2 into s (aggregating per-node layers into a run total).
func (s *Stats) Add(s2 Stats) {
	s.Pushed += s2.Pushed
	s.Enqueued += s2.Enqueued
	s.TailDrops += s2.TailDrops
	s.ChokeDrops += s2.ChokeDrops
	s.StaleDrops += s2.StaleDrops
	s.GrantTx += s2.GrantTx
	s.GateSkips += s2.GateSkips
	s.ProbeSends += s2.ProbeSends
}

// NeedReporter is implemented by protocols that can report how many more
// innovative packets they can use for a flow's current batch — the signal
// the Credit policy turns into grants. core.Node implements it.
type NeedReporter interface {
	// BatchNeeded returns the flow's current batch at this node and how
	// many more innovative packets this node can absorb for it (0 when the
	// batch is complete or already acknowledged). ok is false when the
	// node holds no receive-side state for the flow.
	BatchNeeded(id flow.ID) (batch uint32, needed int, ok bool)
}

// CreditTopper is implemented by protocols whose forwarder transmission
// rights the Credit policy can replenish from downstream grants: a
// positive grant tops the forwarder's credit for that batch up to the
// granted need, so a chain whose reception-driven credits drained keeps
// serving advertised demand. core.Node implements it.
type CreditTopper interface {
	TopUpRelayCredit(id flow.ID, batch uint32, granter graph.NodeID, credit float64)
}

// ControlReporter is implemented by protocols that can say whether they
// hold queued control traffic (batch ACKs, NACKs). The layer uses it to
// decide whether a pull is worth making at a full queue: without the hint
// it must pull speculatively (generating a data frame it may immediately
// drop) so queued control can never starve behind a full data queue.
type ControlReporter interface {
	HasControl() bool
}

// PushSource is implemented by protocols hosting push (timer-driven)
// traffic sources. At Init the layer hands such a protocol itself as the
// frame sink: generated frames then enter the layer's bounded queue the
// moment the source's clock fires, with no backpressure — the pressure that
// lets the tail/CHOKe drop policies actually overflow, which pull-based
// transfers never provide (they backpressure through the MAC instead).
type PushSource interface {
	SetPushSink(s sim.FrameSink)
}

// Layer is the per-node congestion layer. It implements sim.Protocol,
// wrapping the data protocol: Pull drains a bounded queue refilled from the
// protocol (applying the drop policy), Receive snoops passing traffic for
// the credit policy, and protocol-internal control frames (batch ACKs,
// NACKs, route control) bypass the queue entirely.
type Layer struct {
	cfg   Config
	proto sim.Protocol
	node  *sim.Node
	need  NeedReporter    // proto's NeedReporter side, nil if unsupported
	ctrl  ControlReporter // proto's ControlReporter side, nil if unsupported
	top   CreditTopper    // proto's CreditTopper side, nil if unsupported

	queue []*sim.Frame

	credit *creditState

	// pendingGrants holds at most one un-transmitted grant per flow;
	// grantFree holds the grants Sent handed back, for queueGrant to reuse.
	pendingGrants []*CreditMsg
	grantFree     sim.FreeList[CreditMsg]

	// enqAt timestamps queued frames for the queue-wait metric. Allocated
	// lazily and only while a telemetry sink is installed, so the normal
	// path never touches it.
	enqAt map[*sim.Frame]int64

	// wakeEv is the scheduled self-wake releasing gated traffic.
	wakeEv *sim.Event
	wakeAt sim.Time

	// Stats is the layer's accounting; read it after the run.
	Stats Stats
}

// New wraps the data protocol in a congestion layer. It panics on Policy
// None: the byte-identical baseline is "no layer", not a pass-through one.
func New(cfg Config, proto sim.Protocol) *Layer {
	if cfg.Policy == None {
		panic("congest: Policy None means no layer; attach the protocol directly")
	}
	cfg.fillDefaults()
	l := &Layer{cfg: cfg, proto: proto, grantFree: sim.FreeList[CreditMsg]{Reset: poisonGrant}}
	if cfg.Policy == Credit {
		l.credit = new(creditState)
	}
	return l
}

// QueueLen reports the current data-queue depth (for tests).
func (l *Layer) QueueLen() int { return len(l.queue) }

// Node returns the node the layer is installed on (nil before Init).
func (l *Layer) Node() *sim.Node { return l.node }

// Init implements sim.Protocol.
func (l *Layer) Init(n *sim.Node) {
	l.node = n
	l.proto.Init(n)
	l.need, _ = l.proto.(NeedReporter)
	l.ctrl, _ = l.proto.(ControlReporter)
	l.top, _ = l.proto.(CreditTopper)
	if ps, ok := l.proto.(PushSource); ok {
		ps.SetPushSink(l)
	}
}

// PushFrame implements sim.FrameSink: push sources inject generated frames
// here, where the bounded queue's drop policy rules on them immediately —
// overload overflows the queue (tail or CHOKe drops) instead of
// backpressuring the source, exactly the unresponsive-flow pressure AQM is
// designed for.
func (l *Layer) PushFrame(f *sim.Frame) {
	l.Stats.Pushed++
	info, ok := l.dataInfo(f)
	if !ok {
		info = frameInfo{flow: f.FlowID}
	}
	l.enqueue(f, info)
	l.node.Wake()
}

// frameInfo is the congestion-relevant reading of a data frame.
type frameInfo struct {
	flow     uint32
	batch    uint32 // zero for batch-less protocols (Srcr)
	hasBatch bool
	more     *core.DataMsg // non-nil for MORE data (credit pacing)
}

// dataInfo classifies a frame: (info, true) for data frames the queue and
// credit policy manage, false for control frames that bypass the layer.
func (l *Layer) dataInfo(f *sim.Frame) (frameInfo, bool) {
	switch m := f.Payload.(type) {
	case *core.DataMsg:
		return frameInfo{flow: uint32(m.Flow), batch: m.Batch, hasBatch: true, more: m}, true
	case *exor.DataMsg:
		return frameInfo{flow: uint32(m.Flow), batch: uint32(m.Batch), hasBatch: true}, true
	case *srcr.DataMsg:
		return frameInfo{flow: uint32(m.Flow)}, true
	}
	return frameInfo{}, false
}

// Receive implements sim.Protocol: grants are consumed here, everything
// else flows to the protocol first (so its state is current) and is then
// snooped — data receptions trigger grant generation, and overheard batch
// acknowledgments purge queued frames the receiving side would now ignore.
func (l *Layer) Receive(f *sim.Frame) {
	if g, ok := f.Payload.(*CreditMsg); ok {
		if l.credit != nil {
			l.acceptGrant(f, g)
		}
		return
	}
	l.proto.Receive(f)
	switch m := f.Payload.(type) {
	case *core.AckMsg:
		// The batch is done: every queued frame for it (or older) is dead
		// weight the protocol itself would no longer generate.
		l.purgeAcked(uint32(m.Flow), m.Batch)
	case *exor.DoneMsg:
		l.purgeAcked(uint32(m.Flow), uint32(m.Batch))
	}
	if l.credit != nil {
		if info, ok := l.dataInfo(f); ok && info.more != nil {
			l.maybeGrant(f, info.more)
		}
	}
}

// purgeAcked drops queued data frames of the flow whose batch the
// destination just acknowledged (or older).
func (l *Layer) purgeAcked(fid uint32, batch uint32) {
	keep := l.queue[:0]
	for _, q := range l.queue {
		if qi, ok := l.dataInfo(q); ok && qi.flow == fid && qi.hasBatch && qi.batch <= batch {
			l.Stats.StaleDrops++
			l.drop(q, telemetry.QDropStale)
			continue
		}
		keep = append(keep, q)
	}
	l.queue = keep
}

// Pull implements sim.Protocol. Priority order: pending credit grants,
// protocol control frames surfaced while refilling, then the data queue
// subject to the pacing gate.
func (l *Layer) Pull() *sim.Frame {
	if len(l.pendingGrants) > 0 {
		g := l.pendingGrants[0]
		l.pendingGrants = l.pendingGrants[:copy(l.pendingGrants, l.pendingGrants[1:])]
		l.Stats.GrantTx++
		l.node.Emit(telemetry.Event{
			Flow: uint32(g.Flow), Batch: g.Batch,
			Aux: int64(g.Needed), Kind: telemetry.KindGrant,
		})
		g.frame = sim.Frame{From: l.node.ID(), To: graph.Broadcast, Bytes: grantWireBytes, Payload: g}
		return &g.frame
	}
	// Refill from the protocol. Control frames surface immediately; data
	// frames enter the queue under the drop policy. The QueueLen bound
	// counts only sendable frames: pacing-gated frames must not block the
	// node from pulling and forwarding other flows' traffic (head-of-line
	// blocking), but the total still has a hard cap so gated flows cannot
	// accumulate stale frames without bound. The pull count is bounded so
	// a dropping policy cannot spin against a backlogged protocol. At a
	// full queue one probe pull still runs when the protocol reports (or
	// cannot deny) queued control traffic, so batch ACKs can never starve
	// behind a full data queue.
	pulls := 0
	hardCap := 4 * l.cfg.QueueLen
	for pulls <= hardCap {
		if l.sendable() >= l.cfg.QueueLen || len(l.queue) >= hardCap {
			if pulls > 0 || (l.ctrl != nil && !l.ctrl.HasControl()) {
				break
			}
		}
		f := l.proto.Pull()
		if f == nil {
			break
		}
		pulls++
		info, ok := l.dataInfo(f)
		if !ok {
			return f // protocol control: bypasses the queue
		}
		l.enqueue(f, info)
	}
	return l.dequeue()
}

// sendable counts queued frames the pacing gate would release right now.
func (l *Layer) sendable() int {
	n := 0
	for _, f := range l.queue {
		info, _ := l.dataInfo(f)
		if l.canSend(info) {
			n++
		}
	}
	return n
}

// enqueue admits a data frame under the drop policy.
func (l *Layer) enqueue(f *sim.Frame, info frameInfo) {
	l.purgeStale(info)
	if len(l.queue) >= 4*l.cfg.QueueLen {
		if l.cfg.Policy == Choke {
			// CHOKe at overflow: draw a random victim; a same-flow match
			// drops both (the dominant flow penalizes itself), otherwise
			// the arrival tail-drops.
			v := l.node.Rand().Intn(len(l.queue))
			if l.queue[v].FlowID == f.FlowID {
				victim := l.queue[v]
				l.queue = append(l.queue[:v], l.queue[v+1:]...)
				l.Stats.ChokeDrops += 2
				l.drop(victim, telemetry.QDropChoke)
				l.drop(f, telemetry.QDropChoke)
				return
			}
		}
		l.Stats.TailDrops++
		l.drop(f, telemetry.QDropTail)
		return
	}
	l.Stats.Enqueued++
	l.queue = append(l.queue, f)
	if l.node != nil && l.node.Telemetry() {
		if l.enqAt == nil {
			l.enqAt = make(map[*sim.Frame]int64)
		}
		l.enqAt[f] = int64(l.node.Now())
		l.node.Emit(telemetry.Event{
			Flow: f.FlowID, Aux: int64(len(l.queue)), Kind: telemetry.KindEnqueue,
		})
	}
}

// purgeStale drops queued frames of the same flow that belong to an older
// batch than the arriving frame: the receiving side would discard them, so
// transmitting them only burns air.
func (l *Layer) purgeStale(info frameInfo) {
	if !info.hasBatch {
		return
	}
	keep := l.queue[:0]
	for _, q := range l.queue {
		if qi, ok := l.dataInfo(q); ok && qi.flow == info.flow && qi.hasBatch && qi.batch < info.batch {
			l.Stats.StaleDrops++
			l.drop(q, telemetry.QDropStale)
			continue
		}
		keep = append(keep, q)
	}
	l.queue = keep
}

// drop reports a never-transmitted frame back to the protocol as failed;
// reason is the telemetry QDrop* code.
func (l *Layer) drop(f *sim.Frame, reason int64) {
	if l.enqAt != nil {
		delete(l.enqAt, f)
	}
	if l.node != nil {
		l.node.Emit(telemetry.Event{Flow: f.FlowID, Aux: reason, Kind: telemetry.KindQueueDrop})
	}
	l.proto.Sent(f, false)
}

// dequeue returns the first queued frame the pacing gate allows, FIFO
// otherwise. When everything is gated it schedules a self-wake for the
// earliest release and returns nil.
func (l *Layer) dequeue() *sim.Frame {
	for i, f := range l.queue {
		info, _ := l.dataInfo(f)
		if l.canSend(info) {
			l.commitSend(info)
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			if l.enqAt != nil {
				if at, ok := l.enqAt[f]; ok {
					delete(l.enqAt, f)
					l.node.Emit(telemetry.Event{
						Flow: f.FlowID, Dur: int64(l.node.Now()) - at,
						Kind: telemetry.KindDequeue,
					})
				}
			}
			return f
		}
		l.Stats.GateSkips++
	}
	return nil
}

// canSend asks the credit gate, under policy Credit, whether the frame could
// transmit now, without committing to it (no probe consumption).
func (l *Layer) canSend(info frameInfo) bool {
	if l.cfg.Policy == Credit {
		return l.creditCanSend(info)
	}
	return true
}

// commitSend charges the credit gate for a frame canSend just approved.
func (l *Layer) commitSend(info frameInfo) {
	if l.cfg.Policy == Credit {
		l.creditCommit(info)
	}
}

// Sent implements sim.Protocol, routing outcomes back to the protocol.
// Grants are layer-owned: a grant handed back goes onto the layer's free
// list (poisonGrant) and needs no completion handling (broadcast). The
// layer reads nothing of a data frame in Sent: the frame belongs to the
// protocol again once handed back, which may recycle it at once.
func (l *Layer) Sent(f *sim.Frame, ok bool) {
	if g, isGrant := f.Payload.(*CreditMsg); isGrant {
		l.grantFree.Put(g)
		if len(l.pendingGrants) > 0 || len(l.queue) > 0 {
			l.node.Wake()
		}
		return
	}
	l.proto.Sent(f, ok)
	if len(l.queue) > 0 || len(l.pendingGrants) > 0 {
		l.node.Wake()
	}
}

// ensureWake guarantees the node re-pulls no later than at, so gated
// traffic cannot sleep forever.
func (l *Layer) ensureWake(at sim.Time) {
	if l.wakeEv != nil && l.wakeAt <= at && l.wakeAt > l.node.Now() {
		return
	}
	if l.wakeEv != nil {
		l.wakeEv.Cancel()
	}
	delay := at - l.node.Now()
	if delay < 0 {
		delay = 0
	}
	l.wakeAt = at
	l.wakeEv = l.node.After(delay, func() {
		l.wakeEv = nil
		l.node.Wake()
	})
}
