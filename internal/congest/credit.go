package congest

import (
	"slices"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
)

// The Credit policy is receiver-driven suppression for MORE. Eq. (3.3)
// credits are open loop: a forwarder earns transmission rights from
// *receptions*, so once every downstream listener holds a full-rank batch,
// upstream nodes keep burning airtime on packets nobody can use until the
// batch ACK crawls back to the source — the innovation-less retransmission
// storm that dominates the large-topology multi-flow sweeps. Here every
// node with batch state broadcasts a small grant whenever its remaining
// need (K − rank) changes; a node transmitting the batch listens to the
// grants of its own downstream (per the packet's forwarder ordering) and
// gates the flow once every downstream listener it has heard from reports
// zero need for the current batch. Because grants fire only on gating
// transitions (first word on a batch, need hitting zero, need
// reappearing), a granter says only a few things per batch; and because
// the gate is pure suppression layered over unchanged MORE crediting, a run
// can only lose transmissions that provably could not have been
// innovative downstream. A gated flow still releases one probe per
// gateTimeout — with the interval doubling while nothing changes, up to
// 32× — so a lost ACK or a starved forwarder chain cannot stall a flow,
// and a stalled flow cannot storm the medium.

// CreditMsg is a credit grant: the granter's current batch for the flow
// and how many more innovative packets it can use. Broadcast, tiny, and
// unacknowledged, like a probe.
type CreditMsg struct {
	Flow   flow.ID
	Batch  uint32
	Needed int

	// frame carries the grant: message and frame are one object, owned by
	// the granting layer until Pull hands the frame to the MAC and again
	// once Sent hands it back (poisonGrant).
	frame sim.Frame
}

// grantWireBytes is the on-air size of a grant: type + flow + batch +
// need + MAC framing.
const grantWireBytes = 16

// releasedGrant is the Flow of a released grant: no flow has it, so a read
// after release finds no state.
const releasedGrant = ^flow.ID(0)

// grantInfo is one granter's latest word on a flow.
type grantInfo struct {
	granter graph.NodeID
	batch   uint32
	needed  int
	at      sim.Time
}

// creditFlow is the sender-side gate state for one flow.
type creditFlow struct {
	batch     uint32
	lastProbe sim.Time // last gateTimeout liveness release
	backoff   int      // consecutive probes without news (caps the interval)
	// fwdSig fingerprints the forwarder set the gate's grants were collected
	// against; route repair rewriting the set mid-batch resets the probe
	// backoff (see creditFlowFor).
	fwdSig uint64
}

// advertised is the granter-side memory of the last grant sent per flow.
type advertised struct {
	batch  uint32
	needed int
	at     sim.Time
	valid  bool
}

type creditState struct {
	// grants holds, per flow, one entry per granter ever heard on it, in
	// order of first word (about a dozen: the granters in earshot).
	grants map[uint32][]grantInfo
	flows  map[uint32]*creditFlow
	adv    map[uint32]*advertised
}

func newCreditState() *creditState {
	return &creditState{
		grants: make(map[uint32][]grantInfo),
		flows:  make(map[uint32]*creditFlow),
		adv:    make(map[uint32]*advertised),
	}
}

// acceptGrant records a downstream node's latest need and releases any
// traffic it ungates.
func (l *Layer) acceptGrant(f *sim.Frame, g *CreditMsg) {
	c := l.credit
	word := grantInfo{granter: f.From, batch: g.Batch, needed: g.Needed, at: l.node.Now()}
	heard := c.grants[uint32(g.Flow)]
	if i := slices.IndexFunc(heard, func(gi grantInfo) bool { return gi.granter == f.From }); i >= 0 {
		heard[i] = word
	} else {
		if heard == nil {
			// Room for the dozen or so granters in earshot at once, not
			// one reallocation per doubling as they are first heard.
			heard = make([]grantInfo, 0, 16)
		}
		c.grants[uint32(g.Flow)] = append(heard, word)
	}
	if g.Needed > 0 {
		// Fresh demand: reset the probe backoff so a re-opened gate reacts
		// quickly, and grant the advertised credit upstream — if this node
		// forwards the flow and its reception-driven credit drained, the
		// receiver's word is its new transmission budget.
		if cf, ok := c.flows[uint32(g.Flow)]; ok {
			cf.backoff = 0
		}
		if l.top != nil {
			// A trickle, not a budget: the granted need is demand on the
			// whole upstream neighborhood, not on this node alone — every
			// audible forwarder hears the same grant, so handing each the
			// full need would multiply it by the neighborhood size. Two
			// sends per grant event is enough to keep a full-buffer,
			// drained-credit forwarder serving advertised demand (grants
			// refresh while the need persists).
			c := float64(g.Needed)
			if c > 2 {
				c = 2
			}
			l.top.TopUpRelayCredit(g.Flow, g.Batch, f.From, c)
		}
	}
	if len(l.queue) > 0 {
		l.node.Wake()
	}
}

// maybeGrant advertises this node's need for the flow's current batch.
// Grants answer an active upstream sender, so only receptions from
// upstream trigger them; what gets said balances freshness against frame
// count:
//
//   - a new batch (or need reappearing after a purge) is announced once;
//   - the endgame countdown — need at or below needAdvertiseMax — is
//     re-advertised on every change, keeping the upstream gate's positive
//     signal alive through grant losses (each innovative reception is
//     another chance to be heard);
//   - a zero need is announced on the transition and then refreshed at
//     most every grantRefresh while traffic for the dead batch keeps
//     arriving — the lost-stop-signal retransmission path, self-limiting
//     because the suppressed traffic is what drives it.
func (l *Layer) maybeGrant(f *sim.Frame, m *core.DataMsg) {
	if l.need == nil {
		return
	}
	if creditBypass(m.K) {
		return // sub-floor batch: the grant machinery costs more than it saves
	}
	if !l.senderUpstream(f.From, m) {
		return // overheard downstream traffic; our state is no news to them
	}
	batch, needed, ok := l.need.BatchNeeded(m.Flow)
	if !ok {
		return
	}
	fid := uint32(m.Flow)
	c := l.credit
	a, have := c.adv[fid]
	if !have {
		a = &advertised{}
		c.adv[fid] = a
	}
	now := l.node.Now()
	advMax := endgameThreshold(m.K)
	if a.valid && a.batch == batch {
		if (needed > 0) == (a.needed > 0) && now-a.at < grantMinInterval {
			// Not a stop/start transition: respect the spacing floor.
			// Every broadcast reception offers every listener a grant
			// opportunity, so un-floored chatter scales with the
			// neighborhood size and feeds the congestion it should damp.
			return
		}
		switch {
		case needed == a.needed:
			// Unchanged word, but upstream is still transmitting at us.
			// The endgame states — zero (a lost stop signal keeps the
			// storm alive) and a small positive (the top-up path that
			// keeps the frontier serving) — are worth restating
			// occasionally; an unchanged mid-batch need is not.
			if needed > advMax || now-a.at < grantRefresh {
				return
			}
		case needed > 0 && a.needed > 0 && needed > advMax:
			// Mid-batch countdown: a frame per innovative reception would
			// drown the medium in grants, but total silence would leave a
			// gated upstream probing blind. Announce halving-level
			// crossings only (…32→16, 16→9: the 8-and-below endgame then
			// re-advertises every change).
			if bitLen(needed) == bitLen(a.needed) {
				return
			}
		}
	}
	a.batch, a.needed, a.at, a.valid = batch, needed, now, true
	l.queueGrant(m.Flow, batch, needed)
}

// queueGrant rewrites a pending grant for the same flow in place, keeping
// its queue position, or queues one off the layer's free list, and wakes
// the MAC. Once the free list is warm a grant allocates nothing.
func (l *Layer) queueGrant(id flow.ID, batch uint32, needed int) {
	for _, p := range l.pendingGrants {
		if p.Flow == id {
			p.Batch, p.Needed = batch, needed
			l.node.Wake()
			return
		}
	}
	g := l.grantFree.Get()
	g.Flow, g.Batch, g.Needed = id, batch, needed
	l.pendingGrants = append(l.pendingGrants, g)
	l.node.Wake()
}

// poisonGrant is what a grant Sent handed back holds on the free list: a
// sentinel flow, batch and need, a zero frame. Every receiver read it during
// Receive, so nothing holds it any more.
func poisonGrant(g *CreditMsg) {
	*g = CreditMsg{Flow: releasedGrant, Batch: ^uint32(0), Needed: -1}
}

// creditFlowFor returns (creating and batch-syncing) the sender-side gate
// state for the frame's flow.
func (l *Layer) creditFlowFor(info frameInfo) *creditFlow {
	c := l.credit
	cf, ok := c.flows[info.flow]
	if !ok {
		cf = &creditFlow{batch: info.batch}
		if info.more != nil {
			cf.fwdSig = info.more.Forwarders.Sig()
		}
		c.flows[info.flow] = cf
	}
	if cf.batch != info.batch {
		cf.batch = info.batch
		cf.backoff = 0
	}
	if info.more != nil {
		// Route repair can rewrite a flow's forwarder set mid-batch; the
		// probe backoff accumulated against the old set says nothing about
		// the new one, so drop it and re-probe within one gateTimeout.
		// Without repair a set change implies a batch change, whose reset
		// above makes this a no-op — legacy runs are byte-identical.
		if sig := info.more.Forwarders.Sig(); sig != cf.fwdSig {
			cf.fwdSig = sig
			cf.backoff = 0
		}
	}
	return cf
}

// creditSuppressed reports the downstream verdict: true when at least one
// downstream granter has spoken for this batch within grantTTL and none
// of them still needs packets. No live grants (cold start, new batch, or
// a neighborhood gone quiet) means transmit: a zero that is no longer
// being restated by the traffic it suppresses has expired, and releasing
// the flow beats stranding it on probe backoff.
//
// The verdict is a pure function of the set of the flow's grants — false if
// any live downstream granter of this batch needs packets, else whether any
// spoke within grantTTL — so it does not depend on the order the entries are
// visited in, which is what lets the table be a slice in order of first word.
func (l *Layer) creditSuppressed(info frameInfo) bool {
	m := info.more
	me := l.node.ID()
	isSrc, myIdx := m.Src == me, m.Forwarders.Index(me)
	horizon := l.node.Now() - grantTTL
	heard := false
	for _, gi := range l.credit.grants[info.flow] {
		if gi.batch != info.batch || !granterDownstream(gi.granter, m, isSrc, myIdx) {
			continue
		}
		if gi.needed > 0 {
			return false
		}
		if gi.at >= horizon {
			heard = true
		}
	}
	return heard
}

// creditBypass reports whether the credit machinery stands down for a
// batch of rank k: below the creditMinK floor the whole batch is endgame
// and grants/gating cost more air than they save, so the flow runs over
// the plain bounded queue (behavior-identical to the Tail policy).
func creditBypass(k int) bool {
	return k > 0 && k < creditMinK
}

// endgameThreshold scales the endgame-countdown threshold with the batch
// rank: needAdvertiseMax is tuned for K = 32, where the every-change
// countdown covers the last quarter of the batch. A smaller batch keeps the
// same fraction (K/4) so the grant bill per batch shrinks with the batch
// instead of staying fixed.
func endgameThreshold(k int) int {
	if k <= 0 {
		return needAdvertiseMax
	}
	return max(1, min(needAdvertiseMax, k/4))
}

// creditCanSend gates a data frame when every downstream listener heard
// from reports zero need for the frame's batch, except for one probe per
// (exponentially backed-off) gateTimeout. Non-MORE frames pass untouched,
// as do sub-floor batches (see creditBypass).
func (l *Layer) creditCanSend(info frameInfo) bool {
	if info.more == nil || creditBypass(info.more.K) {
		return true
	}
	cf := l.creditFlowFor(info)
	if !l.creditSuppressed(info) {
		return true
	}
	now := l.node.Now()
	interval := gateTimeout << uint(min(cf.backoff, 5))
	if now-cf.lastProbe >= interval {
		return true // probe due: a send would be the liveness probe
	}
	l.ensureWake(cf.lastProbe + interval)
	return false
}

// creditCommit charges the gate state for an approved send: a send under
// suppression consumes the due probe and backs its successor off — a lost
// grant, a lost batch ACK, or a credit-starved forwarder chain cannot
// stall the flow (probe receptions still add Eq. (3.3) credit
// downstream), and a stalled flow cannot storm the medium.
func (l *Layer) creditCommit(info frameInfo) {
	if info.more == nil || creditBypass(info.more.K) {
		return
	}
	cf := l.creditFlowFor(info)
	if !l.creditSuppressed(info) {
		return
	}
	cf.lastProbe = l.node.Now()
	cf.backoff++
	l.Stats.ProbeSends++
}

// senderUpstream reports whether the frame's sender sits above this node
// in the packet's forwarder ordering (farther from the destination) — the
// senders whose behavior this node's grants steer.
func (l *Layer) senderUpstream(sender graph.NodeID, m *core.DataMsg) bool {
	if sender == m.Src {
		return true
	}
	myIdx, senderIdx := m.Forwarders.Index(l.node.ID()), m.Forwarders.Index(sender)
	if myIdx < 0 {
		// We are the destination: everyone in the list is upstream of us.
		return senderIdx >= 0
	}
	return senderIdx > myIdx
}

// granterDownstream reports whether the granter sits below this node in
// the packet's forwarder ordering (closer to the destination), i.e. whether
// its need is the demand this node's transmissions serve. The node is the
// packet's source (isSrc) or sits at myIdx in its forwarder list (-1 when
// unlisted).
func granterDownstream(granter graph.NodeID, m *core.DataMsg, isSrc bool, myIdx int) bool {
	if granter == m.Dst {
		return true
	}
	granterIdx := m.Forwarders.Index(granter)
	if isSrc {
		// Every forwarder is downstream of the source.
		return granterIdx >= 0
	}
	// The forwarder list is ordered closest-to-destination first.
	return granterIdx >= 0 && granterIdx < myIdx
}

// bitLen is the halving-level of a need: needs with the same bit length
// are within 2× of each other.
func bitLen(v int) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}
