package linkstate

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

// heardRun is everything TestHeardSetExact compares between two runs.
type heardRun struct {
	agents   []*Agent
	counters sim.Counters
	sets     []graph.NodeSet // every heard-set an advertise allocated
	handed   []handedFrame   // every frame but a flood, as a node's stack was handed it
	floods   int             // flood frames handed up a stack
}

// handedFrame is one frame handed up a node's stack: what a layer other than
// the agent could have reacted to.
type handedFrame struct {
	at          sim.Time
	node, from  graph.NodeID
	bytes       int
	flow        uint32
	probe, ride bool // a probe; a frame carrying piggybacked LSAs
}

// frameLog is a stack layer that sends nothing and logs what it is handed.
type frameLog struct {
	node *sim.Node
	run  *heardRun
}

func (l *frameLog) Init(n *sim.Node) { l.node = n }
func (l *frameLog) Receive(f *sim.Frame) {
	if _, flood := f.Payload.(*packet.LSA); flood {
		l.run.floods++
		return
	}
	l.run.handed = append(l.run.handed, handedFrame{
		at: l.node.Now(), node: l.node.ID(), from: f.From, bytes: f.Bytes, flow: f.FlowID,
		probe: f.Payload != nil, ride: len(f.Piggyback) > 0, // chatter's frames carry no payload
	})
}
func (l *frameLog) Pull() *sim.Frame      { return nil }
func (l *frameLog) Sent(*sim.Frame, bool) {}

// runHeardNetwork floods a 64-node geometric mesh for 90 simulated seconds
// with everything that keeps several sequences of one origin alive at once or
// moves the database some other way: two fisheye rings under a network-wide
// summary, piggybacking on a data layer at every fourth node, damping, MaxAge
// aging, and one node crashing at 30 s and coming back at 60 s. newSet is what
// advertise allocates heard-sets with.
func runHeardNetwork(t *testing.T, newSet func(n int) graph.NodeSet) heardRun {
	t.Helper()
	var run heardRun
	defer func(old func(int) graph.NodeSet) { newHeardSet = old }(newHeardSet)
	newHeardSet = func(n int) graph.NodeSet {
		s := newSet(n)
		if s != nil {
			run.sets = append(run.sets, s)
		}
		return s
	}

	const n = 64
	topo, _ := graph.ConnectedGeometric(graph.DefaultGeometric(n), 5)
	simCfg := sim.DefaultConfig()
	simCfg.Seed = 7
	simCfg.RefFrameBytes = 1500
	s := sim.New(topo, simCfg)
	cfg := DefaultConfig()
	cfg.AdvertiseInterval = 2 * sim.Second
	cfg.ScopeRings = []int{1, 3}
	cfg.SummaryInterval = 16 * sim.Second
	cfg.TriggerDelta = 0.05
	cfg.MaxAge = 20 * sim.Second
	cfg.Piggyback = true
	run.agents = make([]*Agent, n)
	for i := range run.agents {
		run.agents[i] = NewAgent(cfg, n)
		layers := []sim.Protocol{run.agents[i]}
		if i%4 == 0 {
			layers = append(layers, &chatter{})
		}
		s.Attach(graph.NodeID(i), sim.NewStack(append(layers, &frameLog{run: &run})...))
	}
	const victim = 9
	s.Run(30 * sim.Second)
	topo.Isolate(victim)
	s.FailNode(victim)
	s.Run(60 * sim.Second)
	topo.Restore(victim)
	s.RecoverNode(victim)
	s.Run(90 * sim.Second)
	run.counters = s.Counters
	return run
}

// sameLSA compares what an LSA says, which is everything but its heard-set.
func sameLSA(a, b *packet.LSA) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Origin == b.Origin && a.Seq == b.Seq && a.TTL == b.TTL &&
		slices.Equal(a.Neighbors, b.Neighbors) && slices.Equal(a.Probs, b.Probs)
}

// TestHeardSetExact runs the same network once as built and once with the
// heard-set stripped from every advertisement, so that every reception goes
// through the hot-row check alone and the medium hands every flood copy up
// (a flood frame's sim.Frame.Heard is its LSA's set). The set is a filter in
// front of that check, not a second opinion: every agent's database, its
// counters and the medium's must come out equal, and a layer stacked beside
// each agent must be handed the same frames but floods, at the same times.
func TestHeardSetExact(t *testing.T) {
	with := runHeardNetwork(t, graph.NewNodeSet)
	without := runHeardNetwork(t, func(int) graph.NodeSet { return nil })

	if !reflect.DeepEqual(with.counters, without.counters) {
		t.Errorf("sim.Counters differ:\n with    %+v\n without %+v", with.counters, without.counters)
	}
	if !reflect.DeepEqual(with.handed, without.handed) {
		t.Errorf("the layers beside the agents were handed %d frames other than floods, %d without the set", len(with.handed), len(without.handed))
	}
	rides := 0
	for _, h := range with.handed {
		if h.ride {
			rides++
		}
	}
	if rides == 0 || len(with.handed) == rides {
		t.Errorf("of %d frames handed up, %d carried LSAs: the log does not see both probes and rides", len(with.handed), rides)
	}
	if without.floods != int(without.counters.Deliveries)-len(without.handed) || with.floods >= without.floods/2 {
		t.Errorf("%d flood copies handed up, %d without the set (of %d decodes): the medium is not skipping heard receivers",
			with.floods, without.floods, without.counters.Deliveries)
	}
	for i, a := range with.agents {
		b := without.agents[i]
		if a.version != b.version || a.FloodTx != b.FloodTx || a.PiggyTx != b.PiggyTx ||
			a.ExpiredLSAs != b.ExpiredLSAs || a.SuppressedAdv != b.SuppressedAdv || a.known != b.known {
			t.Errorf("agent %d: version/FloodTx/PiggyTx/ExpiredLSAs/SuppressedAdv/known = %d/%d/%d/%d/%d/%d, without the set %d/%d/%d/%d/%d/%d",
				i, a.version, a.FloodTx, a.PiggyTx, a.ExpiredLSAs, a.SuppressedAdv, a.known,
				b.version, b.FloodTx, b.PiggyTx, b.ExpiredLSAs, b.SuppressedAdv, b.known)
		}
		if !slices.Equal(a.hot, b.hot) {
			t.Errorf("agent %d: sequence rows differ", i)
		}
		if len(a.cold) != len(b.cold) {
			t.Fatalf("agent %d: %d database rows, %d without the set", i, len(a.cold), len(b.cold))
		}
		for o := range a.cold {
			if a.cold[o].receivedAt != b.cold[o].receivedAt || !sameLSA(a.cold[o].lsa, b.cold[o].lsa) {
				t.Errorf("agent %d: entry for origin %d differs: %+v at %v, without the set %+v at %v",
					i, o, a.cold[o].lsa, a.cold[o].receivedAt, b.cold[o].lsa, b.cold[o].receivedAt)
			}
		}
	}

	// The comparison means something only if the run had the things the set
	// must survive, and if the set did the filtering.
	var floods, piggy, expired int64
	for _, a := range with.agents {
		floods += a.FloodTx
		piggy += a.PiggyTx
		expired += a.ExpiredLSAs
	}
	marked := 0
	for _, set := range with.sets {
		for id := 0; id < len(with.agents); id++ {
			if set.Has(graph.NodeID(id)) {
				marked++
			}
		}
	}
	if floods < 1000 || piggy == 0 || expired == 0 || !with.agents[0].knows(9) {
		t.Errorf("%d floods, %d rides, %d expiries, victim re-learned=%v: the run is not exercising the control plane",
			floods, piggy, expired, with.agents[0].knows(9))
	}
	if len(without.sets) != 0 || len(with.sets) == 0 || marked < 10*len(with.sets) {
		t.Errorf("%d sets allocated (%d when stripped), %d receivers marked: the set is not in use",
			len(with.sets), len(without.sets), marked)
	}
	t.Logf("%d advertisements, %d (flood, node) pairs marked, %d floods, %d rides, %d expiries; %d flood copies handed up, %d without the set",
		len(with.sets), marked, floods, piggy, expired, with.floods, without.floods)
}

// TestHeardSetSharedByScopedCopies: the TTL-decremented copy a forwarder
// makes carries its parent's set, so a node that processed the flood at TTL 3
// is filtered when the TTL 2 copy reaches it; an LSA that crossed a real wire
// (DecodeLSA) has no set and is judged by the database alone.
func TestHeardSetSharedByScopedCopies(t *testing.T) {
	const n = 3
	s := sim.New(graph.Line(n, 1, 10), sim.DefaultConfig())
	agents := make([]*Agent, n)
	for i := range agents {
		agents[i] = NewAgent(DefaultConfig(), n)
		s.Attach(graph.NodeID(i), agents[i])
	}
	lsa := &packet.LSA{Origin: 0, Seq: 1, TTL: 3, Heard: graph.NewNodeSet(n),
		Neighbors: []graph.NodeID{1}, Probs: []uint8{200}}
	if !agents[1].accept(lsa) || !lsa.Heard.Has(1) {
		t.Fatal("first reception refused, or not recorded in the set")
	}
	fwd := *lsa // what handleLSA does
	fwd.TTL--
	if agents[1].accept(&fwd) {
		t.Error("node 1 accepted the forwarded copy of a flood it had processed")
	}
	if !agents[2].accept(&fwd) || !lsa.Heard.Has(2) {
		t.Error("node 2's first reception, through the copy, is not in the parent's set")
	}
	if agents[2].seqOf(0) != 1 || agents[1].version != 1 || agents[2].version != 1 {
		t.Errorf("databases moved more than once: seq %d, versions %d and %d",
			agents[2].seqOf(0), agents[1].version, agents[2].version)
	}

	wire, err := lsa.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := packet.DecodeLSA(wire)
	if err != nil || decoded.Heard != nil {
		t.Fatalf("decoded LSA: err %v, heard-set %v, want none", err, decoded.Heard)
	}
	if agents[1].accept(decoded) {
		t.Error("a replay off the wire was accepted: the database check did not run")
	}
	decoded.Seq = 2
	if !agents[1].accept(decoded) || agents[1].seqOf(0) != 2 {
		t.Error("a newer LSA without a set was refused")
	}

	// A malformed LSA with a set is refused at its first reception by the
	// shape checks and at its second by the set; the database never moves.
	bad := &packet.LSA{Origin: 2, Seq: 1, Heard: graph.NewNodeSet(n), Neighbors: []graph.NodeID{0, n}, Probs: []uint8{9, 9}}
	version := agents[0].version
	if agents[0].accept(bad) || agents[0].accept(bad) || agents[0].version != version || agents[0].knows(2) {
		t.Error("malformed LSA carrying a heard-set was installed")
	}
}
