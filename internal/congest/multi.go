package congest

import (
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
)

// Multi composes several data protocols into the single protocol slot a
// congestion layer wraps. Scenario runs mix protocols on one medium — a
// MORE bulk transfer beside an unresponsive push flow is the fairness
// experiment AQM exists for — and each node then runs one instance of every
// protocol in play. The composition is a sim.Stack, which routes each Sent
// to the member that supplied the frame however long the queue held it.
//
// Multi also forwards the congestion layer's optional capability
// interfaces (NeedReporter, CreditTopper, ControlReporter, PushSource) to
// whichever members implement them: the layer discovers capabilities by
// type assertion on the one protocol it wraps, so the composite must
// answer for its members.
//
// Member order is transmission priority. Put timer-driven push protocols
// first: they only offer traffic their clocks have generated, while a
// backlogged batch protocol always has something to send and would
// otherwise starve them at every pull.
type Multi struct {
	*sim.Stack

	needs []NeedReporter
	tops  []CreditTopper
	ctrls []ControlReporter
	srcs  []PushSource
	// opaque marks members that cannot report control state: the composite
	// must then behave as if it had no ControlReporter hint (conservative
	// speculative pulls) rather than denying control traffic exists.
	opaque bool
}

// Combine composes the given protocols, first member highest priority. A
// single protocol is returned unwrapped.
func Combine(protos ...sim.Protocol) sim.Protocol {
	if len(protos) == 1 {
		return protos[0]
	}
	m := &Multi{Stack: sim.NewStack(protos...)}
	for _, p := range protos {
		if x, ok := p.(NeedReporter); ok {
			m.needs = append(m.needs, x)
		}
		if x, ok := p.(CreditTopper); ok {
			m.tops = append(m.tops, x)
		}
		if x, ok := p.(ControlReporter); ok {
			m.ctrls = append(m.ctrls, x)
		} else {
			m.opaque = true
		}
		if x, ok := p.(PushSource); ok {
			m.srcs = append(m.srcs, x)
		}
	}
	return m
}

// BatchNeeded implements NeedReporter: the first member holding state for
// the flow answers (flow IDs are globally unique, so at most one does).
func (m *Multi) BatchNeeded(id flow.ID) (batch uint32, needed int, ok bool) {
	for _, nr := range m.needs {
		if b, n, ok := nr.BatchNeeded(id); ok {
			return b, n, ok
		}
	}
	return 0, 0, false
}

// TopUpRelayCredit implements CreditTopper: every capable member is
// offered the grant; members without state for the flow ignore it.
func (m *Multi) TopUpRelayCredit(id flow.ID, batch uint32, granter graph.NodeID, credit float64) {
	for _, t := range m.tops {
		t.TopUpRelayCredit(id, batch, granter, credit)
	}
}

// HasControl implements ControlReporter: control exists when any member
// reports it — or might, for members that cannot say.
func (m *Multi) HasControl() bool {
	if m.opaque {
		return true
	}
	for _, c := range m.ctrls {
		if c.HasControl() {
			return true
		}
	}
	return false
}

// SetPushSink implements PushSource, fanning the sink out to every member
// hosting push sources.
func (m *Multi) SetPushSink(s sim.FrameSink) {
	for _, src := range m.srcs {
		src.SetPushSink(s)
	}
}
