package congest

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
)

// refGate is the credit gate as it stood before forwarder lists carried a
// position table and grants were filed per flow: one map of every (flow,
// granter) pair ever heard, walked whole for each verdict, with every
// position question answered by scanning the packet's list. It is kept here
// as the reference TestCreditVerdictMatchesReference holds the live gate to.
type refGate struct {
	me     graph.NodeID
	grants map[refKey]*refGrant
	flows  map[uint32]*creditFlow
}

type refKey struct {
	flow    uint32
	granter graph.NodeID
}

type refGrant struct {
	batch  uint32
	needed int
	at     sim.Time
}

func newRefGate(me graph.NodeID) *refGate {
	return &refGate{me: me, grants: map[refKey]*refGrant{}, flows: map[uint32]*creditFlow{}}
}

func (r *refGate) acceptGrant(from graph.NodeID, g *CreditMsg, now sim.Time) {
	key := refKey{uint32(g.Flow), from}
	gi, ok := r.grants[key]
	if !ok {
		gi = &refGrant{}
		r.grants[key] = gi
	}
	gi.batch, gi.needed, gi.at = g.Batch, g.Needed, now
	if g.Needed > 0 {
		if cf, ok := r.flows[uint32(g.Flow)]; ok {
			cf.backoff = 0
		}
	}
}

func (r *refGate) flowFor(m *core.DataMsg) *creditFlow {
	cf, ok := r.flows[uint32(m.Flow)]
	if !ok {
		cf = &creditFlow{batch: m.Batch, fwdSig: refSignature(m)}
		r.flows[uint32(m.Flow)] = cf
	}
	if cf.batch != m.Batch {
		cf.batch = m.Batch
		cf.backoff = 0
	}
	if sig := refSignature(m); sig != cf.fwdSig {
		cf.fwdSig = sig
		cf.backoff = 0
	}
	return cf
}

func refSignature(m *core.DataMsg) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range m.Forwarders.Entries {
		h ^= uint64(e.Node)
		h *= 1099511628211
	}
	return h
}

func (r *refGate) suppressed(m *core.DataMsg, now sim.Time) bool {
	horizon := now - grantTTL
	heard := false
	for key, gi := range r.grants {
		if key.flow != uint32(m.Flow) || gi.batch != m.Batch {
			continue
		}
		if !r.granterDownstream(key.granter, m) {
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

func (r *refGate) commit(m *core.DataMsg, now sim.Time) {
	cf := r.flowFor(m)
	if !r.suppressed(m, now) {
		return
	}
	cf.lastProbe = now
	cf.backoff++
}

func (r *refGate) senderUpstream(sender graph.NodeID, m *core.DataMsg) bool {
	if sender == m.Src {
		return true
	}
	myIdx, senderIdx := -1, -1
	for i, e := range m.Forwarders.Entries {
		if e.Node == r.me {
			myIdx = i
		}
		if e.Node == sender {
			senderIdx = i
		}
	}
	if myIdx < 0 {
		return senderIdx >= 0
	}
	return senderIdx > myIdx
}

func (r *refGate) granterDownstream(granter graph.NodeID, m *core.DataMsg) bool {
	if granter == m.Dst {
		return true
	}
	if m.Src == r.me {
		for _, e := range m.Forwarders.Entries {
			if e.Node == granter {
				return true
			}
		}
		return false
	}
	myIdx, granterIdx := -1, -1
	for i, e := range m.Forwarders.Entries {
		if e.Node == r.me {
			myIdx = i
		}
		if e.Node == granter {
			granterIdx = i
		}
	}
	return granterIdx >= 0 && myIdx >= 0 && granterIdx < myIdx
}

// gateRoles are the seats the node under test (ID 0) can take in a flow.
const (
	roleSource = iota
	roleForwarder
	roleOverhearer
	roleDestination
	gateRoles
)

// randomGateFlow draws the header fields of one flow as node me sees them:
// a forwarder list of 0, 1, 4 or 400 distinct nodes out of 1..519 and a
// seat for me (a forwarder seat in an empty list is an overhearer's).
func randomGateFlow(rng *rand.Rand, id flow.ID, me graph.NodeID) *core.DataMsg {
	const k = 32
	size := []int{0, 1, 4, 400}[rng.Intn(4)]
	ids := rng.Perm(519)
	entries := make([]core.FwdEntry, size)
	for i := range entries {
		entries[i] = core.FwdEntry{Node: graph.NodeID(ids[i] + 1), Credit: 1}
	}
	m := &core.DataMsg{Flow: id, Src: 600, Dst: 601, K: k}
	switch rng.Intn(gateRoles) {
	case roleSource:
		m.Src = me
	case roleForwarder:
		if size > 0 {
			entries[rng.Intn(size)].Node = me
		}
	case roleDestination:
		m.Dst = me
	}
	m.Forwarders = core.NewFwdList(entries)
	return m
}

// randomGateNode draws a node the flow's header may or may not name: a
// listed forwarder (the few nearest the destination more often than the
// rest, so that some granters speak repeatedly), an endpoint, or any ID
// (graph.Broadcast included).
func randomGateNode(rng *rand.Rand, m *core.DataMsg) graph.NodeID {
	switch n := len(m.Forwarders.Entries); {
	case n > 0 && rng.Intn(2) == 0:
		return m.Forwarders.Entries[rng.Intn(min(n, 3))].Node
	case n > 0 && rng.Intn(2) == 0:
		return m.Forwarders.Entries[rng.Intn(n)].Node
	case rng.Intn(2) == 0:
		return []graph.NodeID{m.Src, m.Dst, 602, graph.Broadcast}[rng.Intn(4)]
	}
	return graph.NodeID(rng.Intn(700))
}

// TestCreditVerdictMatchesReference drives the live gate and refGate with
// the same random history — grants, clock advances straddling grantTTL,
// lists swapped mid-batch as route repair swaps them, gate queries and
// commits — and requires the same verdict, the same senderUpstream and the
// same probe backoff after every step that could move them.
func TestCreditVerdictMatchesReference(t *testing.T) {
	const (
		rounds        = 12
		stepsPerRound = 2000
		me            = graph.NodeID(0) // newTestLayer puts the layer on node 0
	)
	rng := rand.New(rand.NewSource(20))
	verdicts := [2]int{}
	for round := 0; round < rounds; round++ {
		l, s := newTestLayer(t, Config{Policy: Credit}, &fakeProto{})
		ref := newRefGate(me)
		flows := make([]*core.DataMsg, 1+round%6)
		for i := range flows {
			flows[i] = randomGateFlow(rng, flow.ID(i+1), me)
		}
		for step := 0; step < stepsPerRound; step++ {
			m := flows[rng.Intn(len(flows))]
			switch op := rng.Intn(10); {
			case op < 4: // a grant, mostly for this batch, mostly "no more"
				g := &CreditMsg{Flow: m.Flow, Batch: m.Batch}
				if rng.Intn(4) == 0 {
					g.Batch = uint32(rng.Intn(4))
				}
				if rng.Intn(5) == 0 {
					g.Needed = rng.Intn(m.K + 1)
				}
				from := randomGateNode(rng, m)
				l.Receive(&sim.Frame{From: from, To: graph.Broadcast, Payload: g})
				ref.acceptGrant(from, g, s.Now())
			case op < 5:
				d := []sim.Time{sim.Millisecond, 50 * sim.Millisecond, grantTTL - 1, grantTTL, grantTTL + 1, 2 * grantTTL}[rng.Intn(6)]
				s.After(d, func() {})
				s.Run(s.Now() + d)
			case op < 6: // route repair: same flow, new list, maybe a new seat
				i := int(m.Flow) - 1
				flows[i] = randomGateFlow(rng, m.Flow, me)
				flows[i].Batch = m.Batch
			case op < 7:
				m.Batch = uint32(rng.Intn(4))
			default: // the gate is consulted, and sometimes charged
				info, _ := l.dataInfo(&sim.Frame{Payload: m})
				got, want := l.creditFlowFor(info), ref.flowFor(m)
				if got.backoff != want.backoff {
					t.Fatalf("round %d step %d: backoff %d, reference %d", round, step, got.backoff, want.backoff)
				}
				verdict := l.creditSuppressed(info)
				if want := ref.suppressed(m, s.Now()); verdict != want {
					t.Fatalf("round %d step %d: flow %d batch %d (%d forwarders): suppressed = %v, reference %v",
						round, step, m.Flow, m.Batch, len(m.Forwarders.Entries), verdict, want)
				}
				if verdict {
					verdicts[1]++
				} else {
					verdicts[0]++
				}
				if rng.Intn(2) == 0 {
					l.creditCommit(info)
					ref.commit(m, s.Now())
					if got.backoff != want.backoff || got.lastProbe != want.lastProbe {
						t.Fatalf("round %d step %d: after commit backoff %d at %d, reference %d at %d",
							round, step, got.backoff, got.lastProbe, want.backoff, want.lastProbe)
					}
				}
			}
			sender := randomGateNode(rng, m)
			if got, want := l.senderUpstream(sender, m), ref.senderUpstream(sender, m); got != want {
				t.Fatalf("round %d step %d: senderUpstream(%d) = %v, reference %v", round, step, sender, got, want)
			}
		}
	}
	// The history must exercise both verdicts, or agreement proves little.
	t.Logf("verdicts open/suppressed = %v", verdicts)
	if verdicts[0] < 500 || verdicts[1] < 500 {
		t.Errorf("verdicts open/suppressed = %v: the random history is one-sided", verdicts)
	}
}
