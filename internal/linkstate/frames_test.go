package linkstate

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

// probedClique runs n agents on perfect links between every pair until each
// has heard the others' probes for a while. Advertisements are pushed past
// the end of any test, so the only frames on the air are probes.
func probedClique(t *testing.T, cfg Config, n int) (*sim.Simulator, []*Agent) {
	t.Helper()
	topo := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			topo.SetLink(graph.NodeID(i), graph.NodeID(j), 1)
		}
	}
	s := sim.New(topo, sim.DefaultConfig())
	cfg.AdvertiseInterval = 10000 * sim.Second
	agents := make([]*Agent, n)
	for i := range agents {
		agents[i] = NewAgent(cfg, n)
		s.Attach(graph.NodeID(i), agents[i])
	}
	s.Run(20 * sim.Second)
	for j := 1; j < n; j++ {
		if agents[0].prober.DeliveryFrom(graph.NodeID(j)) < minProb {
			t.Fatalf("node 0 heard no probes from %d", j)
		}
	}
	return s, agents
}

func TestFloodSendAllocatesNothing(t *testing.T) {
	// Once the free lists are warm, a flood or probe pulled and handed back
	// allocates nothing: the frame comes back in Sent. An advertisement
	// allocates what it floods — the LSA, its heard-set, its neighbors and
	// their probabilities — and a damped tick nothing at all.
	cfg := DefaultConfig()
	cfg.TriggerDelta = 0.2
	s, agents := probedClique(t, cfg, 6)
	a := agents[0]
	own := &packet.LSA{Origin: 0, Seq: 1, Heard: graph.NewNodeSet(6)}
	fwd := &packet.LSA{Origin: 1, Seq: 1, Heard: graph.NewNodeSet(6)}
	for _, q := range []*lsaQueue{&a.pendingAdv, &a.pendingFwd} {
		l := own
		if q == &a.pendingFwd {
			l = fwd
		}
		cycle := func() {
			q.push(pendingLSA{lsa: l})
			f := a.Pull()
			if f == nil || f.Payload != l {
				t.Fatal("a queued LSA was not flooded")
			}
			a.Sent(f, true)
		}
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("a flood of origin %d allocates %v objects, want 0", l.Origin, allocs)
		}
	}

	// A probe: the whole cycle through the simulator — the tick, the MAC,
	// the neighbor's reception and the Sent that hands the frame back.
	tx := a.ProbeTx()
	if allocs := testing.AllocsPerRun(20, func() { s.Run(s.Now() + sim.Second) }); allocs != 0 {
		t.Errorf("a probe cycle allocates %v objects, want 0", allocs)
	}
	if a.ProbeTx() < tx+15 {
		t.Fatalf("%d probes sent in 21 s", a.ProbeTx()-tx)
	}

	// The first advertisement floods, naming all five neighbors; the ones
	// after it find nothing moved.
	a.advertise()
	if l := a.pendingAdv.live()[a.pendingAdv.len()-1].lsa; len(l.Neighbors) != 5 {
		t.Fatalf("the advertisement names %d neighbors, want 5", len(l.Neighbors))
	}
	if allocs := testing.AllocsPerRun(100, func() { a.advertised = false; a.pendingAdv.reset(); a.advertise() }); allocs > 4 {
		t.Errorf("an advertisement allocates %v objects, want at most 4", allocs)
	}
	suppressed := a.SuppressedAdv
	if allocs := testing.AllocsPerRun(100, a.advertise); allocs != 0 {
		t.Errorf("a damped tick allocates %v objects, want 0", allocs)
	}
	if a.SuppressedAdv != suppressed+101 {
		t.Fatalf("%d of 101 ticks damped", a.SuppressedAdv-suppressed)
	}
}

func TestReleasedControlFrameIsPoisoned(t *testing.T) {
	// Sent zeroes the flood frame it hands back and the next flood reuses
	// it: a reader that kept the frame past Sent finds no payload, and a
	// receiver handed it installs nothing.
	_, agents := probedClique(t, DefaultConfig(), 2)
	a, b := agents[0], agents[1]
	l := &packet.LSA{Origin: 0, Seq: 1, Heard: graph.NewNodeSet(2)}
	a.pendingAdv.push(pendingLSA{lsa: l})
	f := a.Pull()
	a.Sent(f, true)
	if !reflect.DeepEqual(*f, sim.Frame{}) {
		t.Fatalf("released flood frame %+v, want the zero frame", *f)
	}
	known := b.KnownOrigins()
	if b.Receive(f); b.KnownOrigins() != known {
		t.Fatal("a released frame installed an LSA")
	}
	a.pendingFwd.push(pendingLSA{lsa: l})
	if g := a.Pull(); g != f || g.Payload != l || g.From != 0 {
		t.Fatal("the next flood did not reuse the released frame")
	}
}

func TestOutwardCopySharedPerHop(t *testing.T) {
	// A line with the origin in the middle and a 3-hop ring: both
	// forwarders of the TTL-3 copy flood one and the same TTL-2 object,
	// both forwarders of that the same TTL-1 object, and the ring's last
	// nodes flood nothing. The origin's advertisement is what it was.
	const n, origin = 7, 3
	s := sim.New(graph.Line(n, 0.95, 10), sim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.ScopeRings = []int{3}
	agents := make([]*Agent, n)
	for i := range agents {
		s.Attach(graph.NodeID(i), silentProto{})
		agents[i] = NewAgent(cfg, n)
		agents[i].node, agents[i].id = s.Node(graph.NodeID(i)), graph.NodeID(i) // bound, not Init'ed
	}
	src := agents[origin]
	src.advertise() // the bootstrap summary, unscoped
	src.advertise()
	lsa := src.pendingAdv.live()[1].lsa
	if lsa.TTL != 3 {
		t.Fatalf("the second advertisement has TTL %d, want 3", lsa.TTL)
	}
	was := *lsa
	cur := lsa
	for ttl := uint8(3); ttl >= 1; ttl-- {
		hop := int(4 - ttl)
		var flooded []*packet.LSA
		for _, i := range []int{origin - hop, origin + hop} {
			agents[i].handleLSA(cur)
		}
		s.Run(s.Now() + floodJitter + 10*sim.Millisecond)
		for _, i := range []int{origin - hop, origin + hop} {
			for _, p := range agents[i].pendingFwd.live() {
				flooded = append(flooded, p.lsa)
			}
		}
		if ttl == 1 {
			if len(flooded) != 0 {
				t.Fatalf("the ring boundary flooded %d copies", len(flooded))
			}
			break
		}
		if len(flooded) != 2 || flooded[0] != flooded[1] {
			t.Fatalf("TTL-%d forwarders flooded %v, want one shared copy twice", ttl, flooded)
		}
		next := flooded[0]
		if next == cur || next.TTL != ttl-1 || next.Seq != lsa.Seq || &next.Heard[0] != &lsa.Heard[0] {
			t.Fatalf("TTL-%d copy %+v: want a new object, TTL %d, the heard-set shared", ttl, *next, ttl-1)
		}
		cur = next
	}
	if lsa.Origin != was.Origin || lsa.Seq != was.Seq || lsa.TTL != was.TTL ||
		!slices.Equal(lsa.Neighbors, was.Neighbors) || !slices.Equal(lsa.Probs, was.Probs) || &lsa.Heard[0] != &was.Heard[0] {
		t.Fatalf("the origin's LSA changed: %+v, was %+v", *lsa, was)
	}
}

// setDirectedTopology is the view Topology built before its one-pass form:
// a SetDirected per advertised link, in ascending origin order.
func setDirectedTopology(a *Agent) *graph.Topology {
	t := graph.New(a.n)
	for origin, row := range a.cold {
		if row.lsa == nil {
			continue
		}
		for i, nb := range row.lsa.Neighbors {
			t.SetDirected(nb, graph.NodeID(origin), packet.UnquantizeProb(row.lsa.Probs[i]))
		}
	}
	return t
}

func TestTopologyMatchesSetDirected(t *testing.T) {
	// Random databases whose LSAs name neighbors twice, name their own
	// origin and carry zero probabilities: the one-pass view has every row
	// of the SetDirected view, edge for edge, built without growing a row.
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		a := NewAgent(DefaultConfig(), n)
		for origin := 0; origin < n; origin++ {
			if rng.Intn(4) == 0 {
				continue // no LSA from this origin
			}
			l := &packet.LSA{Origin: graph.NodeID(origin), Seq: 1}
			for k := rng.Intn(2 * n); k > 0; k-- {
				l.Neighbors = append(l.Neighbors, graph.NodeID(rng.Intn(n)))
				p := uint8(rng.Intn(256))
				if rng.Intn(3) == 0 {
					p = 0
				}
				l.Probs = append(l.Probs, p)
			}
			if !a.accept(l) {
				t.Fatalf("trial %d: LSA of origin %d refused", trial, origin)
			}
		}
		got, want := a.Topology(), setDirectedTopology(a)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The counts, the rows, their one backing array, the topology and
		// its positions: a row that outgrew its count would add one.
		if allocs := testing.AllocsPerRun(1, func() { a.Topology() }); allocs > 5 {
			t.Fatalf("trial %d: building the view allocates %v objects, want at most 5", trial, allocs)
		}
		if got.N() != want.N() {
			t.Fatalf("trial %d: %d nodes, want %d", trial, got.N(), want.N())
		}
		for i := 0; i < n; i++ {
			g, w := got.OutEdges(graph.NodeID(i)), want.OutEdges(graph.NodeID(i))
			if len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
				t.Fatalf("trial %d: node %d out-edges %v, want %v", trial, i, g, w)
			}
			if g, w := got.InEdges(graph.NodeID(i)), want.InEdges(graph.NodeID(i)); len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
				t.Fatalf("trial %d: node %d in-edges %v, want %v", trial, i, g, w)
			}
		}
	}
}

// dampedByMap is the damping comparison as it was made over maps keyed by
// neighbor: the same neighbors, and every estimate within delta.
func dampedByMap(now, last map[graph.NodeID]float64, delta float64) bool {
	if len(now) != len(last) {
		return false
	}
	for id, p := range now {
		l, ok := last[id]
		if !ok || p-l >= delta || l-p >= delta {
			return false
		}
	}
	return true
}

func TestDampingMatchesMapReference(t *testing.T) {
	// Random estimate sequences on a ten-probe window's grid, so moves of
	// exactly TriggerDelta happen, with neighbors joining and leaving: each
	// tick the slice comparison decides what the map comparison decides,
	// and a tick that floods becomes the next reference.
	const n, delta = 12, 0.2
	s := sim.New(graph.New(n), sim.DefaultConfig())
	s.Attach(0, silentProto{})
	cfg := DefaultConfig()
	cfg.TriggerDelta = delta
	a := NewAgent(cfg, n)
	a.node, a.id = s.Node(0), 0
	a.advertised = true
	rng := rand.New(rand.NewSource(35))
	est := map[graph.NodeID]float64{}
	last := map[graph.NodeID]float64{}
	ascending := func(m map[graph.NodeID]float64, ids []graph.NodeID, ps []float64) ([]graph.NodeID, []float64) {
		ids, ps = ids[:0], ps[:0]
		for id := graph.NodeID(1); id < n; id++ {
			if p, ok := m[id]; ok {
				ids, ps = append(ids, id), append(ps, p)
			}
		}
		return ids, ps
	}
	damped, flooded := 0, 0
	for tick := 0; tick < 20000; tick++ {
		for k := 1 + rng.Intn(3); k > 0; k-- { // a neighbor can leave as another joins
			id := graph.NodeID(1 + rng.Intn(n-1))
			switch r := rng.Intn(10); {
			case r == 0:
				delete(est, id)
			case r <= 2:
				est[id] = float64(1+rng.Intn(10)) / 10
			case r <= 5:
				if p, ok := est[id]; ok {
					est[id] = p + []float64{-delta, delta}[rng.Intn(2)]
				}
			default:
				if p, ok := est[id]; ok {
					est[id] = p + []float64{-0.1, 0.1}[rng.Intn(2)]
				}
			}
		}
		a.advIDs, a.advEst = ascending(est, a.advIDs, a.advEst)
		a.lastIDs, a.lastEst = ascending(last, a.lastIDs, a.lastEst)
		want := dampedByMap(est, last, delta)
		if got := a.damped(); got != want {
			t.Fatalf("tick %d: damped %v, the map reference says %v (now %v, last %v)", tick, got, want, est, last)
		}
		if want {
			damped++
			continue
		}
		flooded++
		last = make(map[graph.NodeID]float64, len(est))
		for k, v := range est {
			last[k] = v
		}
	}
	if damped < 1000 || flooded < 1000 {
		t.Fatalf("%d ticks damped and %d flooded: the sequence does not exercise both", damped, flooded)
	}
}
