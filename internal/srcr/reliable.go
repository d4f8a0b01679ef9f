package srcr

import (
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// End-to-end reliability for Srcr file transfers. MORE and ExOR deliver the
// whole file by construction (batch ACKs / batch maps); a fair best-path
// baseline must also complete the transfer, so the source runs a simple
// NACK-based ARQ on top of the hop-by-hop 802.11 unicast: after each pass
// over the outstanding packets it sends a FIN control message; the
// destination answers with the list of missing sequence numbers; the source
// retransmits those and repeats until the file is complete. Control
// messages are small, prioritized, and re-queued until the MAC delivers
// them, like MORE's batch ACKs (§3.2.2).

// FinMsg marks the end of a transmission pass.
type FinMsg struct {
	Flow   flow.ID
	Pass   int
	Target graph.NodeID // the flow destination
	Source graph.NodeID
}

func (m *FinMsg) wireBytes() int {
	h := packet.SrcrHeader{Route: make([]graph.NodeID, 4)}
	return h.EncodedSize() + 6
}

// NackMsg lists the sequence numbers the destination still misses after a
// pass (empty means the transfer is complete).
type NackMsg struct {
	Flow    flow.ID
	Pass    int
	Missing []int
	Target  graph.NodeID // the flow source
}

func (m *NackMsg) wireBytes() int {
	h := packet.SrcrHeader{Route: make([]graph.NodeID, 4)}
	n := len(m.Missing)
	if n > maxNackEntries {
		n = maxNackEntries
	}
	return h.EncodedSize() + 6 + 2*n
}

// maxNackEntries bounds one NACK's payload; a 1500-byte frame fits ~700
// two-byte sequence numbers. Later passes pick up the remainder.
const maxNackEntries = 700

// nackTimeout is how long the source waits for a NACK before re-sending
// its FIN.
const nackTimeout = 500 * sim.Millisecond

// startPassTracking makes all n packets outstanding for the first pass.
func (st *sourceState) startPassTracking(n int) {
	st.pending = make([]int, n)
	for i := range st.pending {
		st.pending[i] = i
	}
}

// queueControl enqueues a control message for prioritized hop-by-hop
// forwarding toward target.
func (n *Node) queueControl(payload interface{}, target graph.NodeID) {
	next := n.state.NextHop(n.node.ID(), target)
	if next < 0 {
		return
	}
	var bytes int
	var fid flow.ID
	switch m := payload.(type) {
	case *FinMsg:
		bytes = m.wireBytes()
		fid = m.Flow
	case *NackMsg:
		bytes = m.wireBytes()
		fid = m.Flow
	}
	n.control = append(n.control, &sim.Frame{
		From: n.node.ID(), To: next, Bytes: bytes, Payload: payload, FlowID: uint32(fid),
	})
	n.node.Wake()
}

func (n *Node) receiveFin(fr *sim.Frame, m *FinMsg) {
	if fr.To != n.node.ID() {
		return
	}
	if n.node.ID() != m.Target {
		n.queueControl(m, m.Target)
		return
	}
	s, ok := n.sinks[m.Flow]
	if !ok || s.haveSeq == nil {
		// Unknown flow: report everything missing so the source keeps
		// state consistent (should not happen with ExpectFlow).
		return
	}
	missing := make([]int, 0, 16)
	for seq := range s.haveSeq {
		if !s.haveSeq[seq] {
			missing = append(missing, seq)
			if len(missing) == maxNackEntries {
				break
			}
		}
	}
	n.queueControl(&NackMsg{Flow: m.Flow, Pass: m.Pass, Missing: missing, Target: m.Source}, m.Source)
}

func (n *Node) receiveNack(fr *sim.Frame, m *NackMsg) {
	if fr.To != n.node.ID() {
		return
	}
	if n.node.ID() != m.Target {
		n.queueControl(m, m.Target)
		return
	}
	st, ok := n.sources[m.Flow]
	if !ok || st.done || m.Pass != st.pass {
		return
	}
	if st.finTimer != nil {
		st.finTimer.Cancel()
		st.finTimer = nil
	}
	st.awaitingNack = false
	st.finRetries = 0
	if len(m.Missing) == 0 {
		st.done = true
		if st.onDone != nil {
			st.onDone()
		}
		return
	}
	st.pass++
	n.refreshRoute(st)
	st.pending = append(st.pending[:0], m.Missing...)
	n.node.Wake()
}

// refreshRoute re-runs path selection when the routing state has moved on
// since the route was computed — a no-op under the static oracle, the
// re-routing path under learned link state. Losing the route entirely
// (momentary divergence) keeps the old one.
func (n *Node) refreshRoute(st *sourceState) {
	v := n.state.Version()
	if v == st.planVersion {
		return
	}
	st.planVersion = v
	if route := n.state.Path(n.node.ID(), st.route[len(st.route)-1]); route != nil {
		st.route = route
	}
}

// finishPass sends the FIN and arms the NACK timeout.
func (n *Node) finishPass(st *sourceState) {
	st.awaitingNack = true
	fin := &FinMsg{Flow: st.id, Pass: st.pass, Target: st.route[len(st.route)-1], Source: n.node.ID()}
	n.queueControl(fin, fin.Target)
	if st.finTimer != nil {
		st.finTimer.Cancel()
	}
	st.finTimer = n.node.After(nackTimeout, func() {
		if st.done || !st.awaitingNack {
			return
		}
		st.finRetries++
		if n.cfg.RepairInterval > 0 && sim.Time(st.finRetries)*nackTimeout >= n.cfg.RepairInterval {
			n.forceReroute(st)
			st.finRetries = 0
		}
		n.finishPass(st)
	})
}

// forceReroute recomputes the source route regardless of routing-state
// version: the stall that triggers it — FIN passes going unanswered for a
// whole RepairInterval — is itself the evidence the current route is broken
// even if the state version has not ticked (e.g. the oracle was invalidated
// and recomputed before this source noticed). Losing the route entirely
// keeps the old one, like refreshRoute; the next repair tick tries again.
func (n *Node) forceReroute(st *sourceState) {
	n.node.Emit(telemetry.Event{
		Flow: uint32(st.id), Aux: telemetry.StallFin, Kind: telemetry.KindStall,
	})
	st.planVersion = n.state.Version()
	if route := n.state.Path(n.node.ID(), st.route[len(st.route)-1]); route != nil {
		st.route = route
		n.node.Emit(telemetry.Event{
			Flow: uint32(st.id), Aux: telemetry.ReplanStall, Kind: telemetry.KindReplan,
		})
	}
}
