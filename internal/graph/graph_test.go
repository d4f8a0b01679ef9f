package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestDiamond(t *testing.T) {
	d := Diamond()
	if d.N() != 3 {
		t.Fatalf("diamond has %d nodes", d.N())
	}
	if d.Prob(0, 2) != 0.49 {
		t.Fatalf("direct link prob %v", d.Prob(0, 2))
	}
	// ETX(src->R->dst) = 1/0.7 + 1/0.8 ≈ 2.68... wait, the paper states the
	// 2-hop ETX is 2 with perfect relay links; our diamond uses lossy relay
	// links so that opportunism matters in simulation. Sanity: the relay
	// path exists and the direct path is worse than either hop.
	if d.Prob(0, 1) <= d.Prob(0, 2) || d.Prob(1, 2) <= d.Prob(0, 2) {
		t.Fatal("relay links should beat the direct link")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLine(t *testing.T) {
	l := Line(5, 0.8, 10)
	if l.HopCount(0, 4, 0.1) != 4 {
		t.Fatalf("line hop count = %d", l.HopCount(0, 4, 0.1))
	}
	if l.Prob(0, 2) != 0 {
		t.Fatal("line should have no skip links")
	}
	if math.Abs(l.Loss(0, 1)-0.2) > 1e-12 {
		t.Fatalf("loss = %v", l.Loss(0, 1))
	}
}

func TestLossyChainSkipLinks(t *testing.T) {
	c := LossyChain(5, 15, 30)
	// Adjacent links strong, two-hop skip weak but present, far links absent.
	if c.Prob(0, 1) < 0.5 {
		t.Fatalf("adjacent link too weak: %v", c.Prob(0, 1))
	}
	if c.Prob(0, 2) <= 0 || c.Prob(0, 2) >= c.Prob(0, 1) {
		t.Fatalf("skip link should be present but weaker: p01=%v p02=%v", c.Prob(0, 1), c.Prob(0, 2))
	}
	if c.Prob(0, 4) > c.Prob(0, 2) {
		t.Fatal("delivery should fall with distance")
	}
}

func TestGapTopology(t *testing.T) {
	k, p := 4, 0.2
	g := GapTopology(k, p)
	if g.N() != 3+k+1 {
		t.Fatalf("gap topology has %d nodes", g.N())
	}
	src, a, b, dst := NodeID(0), NodeID(1), NodeID(2), NodeID(3+k)
	if g.Prob(src, a) != 1 || g.Prob(src, b) != 1 {
		t.Fatal("src links must be perfect")
	}
	if g.Prob(a, dst) != p {
		t.Fatalf("A->dst prob %v", g.Prob(a, dst))
	}
	for i := 0; i < k; i++ {
		c := NodeID(3 + i)
		if g.Prob(b, c) != p || g.Prob(c, dst) != 1 {
			t.Fatalf("C_%d links wrong", i)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTestbedShape(t *testing.T) {
	topo, seed := ConnectedTestbed(1)
	if topo.N() != 20 {
		t.Fatalf("testbed has %d nodes", topo.N())
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	s := topo.LinkStats(RouteThreshold)
	if s.Isolated != 0 {
		t.Fatalf("connected testbed has %d isolated nodes (seed %d)", s.Isolated, seed)
	}
	// §4.1: loss rates on usable links average to roughly 27%. Accept a
	// generous band; the experiments calibrate the exact seed.
	if s.MeanLoss < 0.15 || s.MeanLoss > 0.45 {
		t.Fatalf("mean link loss %.2f outside plausible testbed band", s.MeanLoss)
	}
	// Paths between nodes should span 1-5 hops (allow a bit of slack).
	maxHops := 0
	for i := 0; i < topo.N(); i++ {
		for j := i + 1; j < topo.N(); j++ {
			h := topo.HopCount(NodeID(i), NodeID(j), RouteThreshold)
			if h < 0 {
				t.Fatalf("pair %d-%d unreachable", i, j)
			}
			if h > maxHops {
				maxHops = h
			}
		}
	}
	if maxHops < 3 {
		t.Fatalf("testbed is nearly a clique (max hops %d); want multi-hop", maxHops)
	}
	if maxHops > 7 {
		t.Fatalf("testbed too stretched (max hops %d)", maxHops)
	}
}

func TestTestbedDeterministic(t *testing.T) {
	a := Testbed(42)
	b := Testbed(42)
	n := a.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.Prob(NodeID(i), NodeID(j)) != b.Prob(NodeID(i), NodeID(j)) {
				t.Fatal("same seed produced different topologies")
			}
		}
	}
	c := Testbed(43)
	same := true
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a.Prob(NodeID(i), NodeID(j)) != c.Prob(NodeID(i), NodeID(j)) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestDeliveryFromDistanceMonotone(t *testing.T) {
	prev := 1.1
	for d := 0.0; d < 100; d += 1 {
		p := DeliveryFromDistance(d, 30)
		if p > prev+1e-12 {
			t.Fatalf("delivery not monotone at d=%v", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("delivery out of range at d=%v: %v", d, p)
		}
		prev = p
	}
	if DeliveryFromDistance(1, 30) < 0.9 {
		t.Fatal("short links should be near-perfect")
	}
	if DeliveryFromDistance(100, 30) != 0 {
		t.Fatal("far links should be cut to zero")
	}
	if DeliveryFromDistance(5, 0) != 0 {
		t.Fatal("zero midRange must yield zero")
	}
}

func TestRateScale(t *testing.T) {
	// Lower rates improve delivery, higher rates degrade it.
	p := 0.6
	if RateScale(p, 1) <= RateScale(p, 2) {
		t.Fatal("1 Mb/s should beat 2 Mb/s")
	}
	if RateScale(p, 2) <= RateScale(p, 5.5) {
		t.Fatal("2 Mb/s should beat 5.5")
	}
	if RateScale(p, 5.5) != p {
		t.Fatal("5.5 Mb/s is the reference rate")
	}
	if RateScale(p, 11) >= p {
		t.Fatal("11 Mb/s should be more fragile")
	}
	if RateScale(0, 1) != 0 {
		t.Fatal("zero stays zero at any rate")
	}
	f := func(praw uint16, r uint8) bool {
		p := float64(praw) / 65535
		rates := []float64{1, 2, 5.5, 11}
		v := RateScale(p, rates[int(r)%4])
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHopCountUnreachable(t *testing.T) {
	topo := New(3)
	topo.SetLink(0, 1, 0.9)
	if topo.HopCount(0, 2, 0.1) != -1 {
		t.Fatal("unreachable pair should report -1")
	}
	if topo.HopCount(1, 1, 0.1) != 0 {
		t.Fatal("self hop count should be 0")
	}
}

func TestValidateCatchesBadProb(t *testing.T) {
	topo := New(2)
	topo.SetDirected(0, 1, 1.5)
	if topo.Validate() == nil {
		t.Fatal("Validate accepted probability > 1")
	}
}

// withRow returns an n-node topology whose node-i out-edge list is row as
// written, bypassing SetDirected's ordering and range discipline.
func withRow(n int, i NodeID, row ...Edge) *Topology {
	topo := New(n)
	topo.out[i] = row
	return topo
}

// TestValidateCatchesMalformedRows covers what only a neighbor list can get
// wrong: SetDirected cannot produce these rows, so Validate is the one guard
// against code inside the package that edits out directly.
func TestValidateCatchesMalformedRows(t *testing.T) {
	for name, topo := range map[string]*Topology{
		"peer past the last node": withRow(3, 0, Edge{Node: 3, P: 0.5}),
		"negative peer":           withRow(3, 0, Edge{Node: -1, P: 0.5}),
		"self-edge":               withRow(3, 1, Edge{Node: 1, P: 0.5}),
		"unsorted row":            withRow(3, 0, Edge{Node: 2, P: 0.5}, Edge{Node: 1, P: 0.5}),
		"duplicate peer":          withRow(3, 0, Edge{Node: 1, P: 0.5}, Edge{Node: 1, P: 0.6}),
		"zero-probability edge":   withRow(3, 0, Edge{Node: 1, P: 0}),
		"row count":               {Pos: make([]Position, 3), out: make([][]Edge, 2)},
	} {
		if topo.Validate() == nil {
			t.Errorf("Validate accepted a topology with a %s", name)
		}
	}
	if err := withRow(3, 0, Edge{Node: 1, P: 0.5}, Edge{Node: 2, P: 1}).Validate(); err != nil {
		t.Errorf("Validate rejected a well-formed row: %v", err)
	}
}

// TestInEdgeIndexConcurrentFirstUse: figure drivers hand one topology to
// opts.Parallel workers, whose first InEdges calls race to build the lazy
// index. Every reader must see the same lists (run under -race in CI).
func TestInEdgeIndexConcurrentFirstUse(t *testing.T) {
	topo := Testbed(1)
	n := topo.N()
	ref := topo.Clone()
	want := make([][]Edge, n)
	for j := range want {
		want[j] = ref.InEdges(NodeID(j))
	}
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				j := NodeID((k + g) % n)
				if got := topo.InEdges(j); !slices.Equal(got, want[j]) {
					errs <- fmt.Errorf("reader %d: InEdges(%d) = %v, want %v", g, j, got, want[j])
					return
				}
				if got := topo.OutEdges(j); !slices.Equal(got, ref.OutEdges(j)) {
					errs <- fmt.Errorf("reader %d: OutEdges(%d) = %v, want %v", g, j, got, ref.OutEdges(j))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Diamond()
	b := a.Clone()
	b.SetLink(0, 1, 0.1)
	if a.Prob(0, 1) == 0.1 {
		t.Fatal("Clone aliases original")
	}
}

func TestLinkStats(t *testing.T) {
	topo := New(4)
	topo.SetLink(0, 1, 0.9) // loss 0.1
	topo.SetLink(1, 2, 0.5) // loss 0.5
	s := topo.LinkStats(0.05)
	if s.Links != 2 {
		t.Fatalf("links = %d", s.Links)
	}
	if math.Abs(s.MeanLoss-0.3) > 1e-9 {
		t.Fatalf("mean loss = %v", s.MeanLoss)
	}
	if s.Isolated != 1 { // node 3
		t.Fatalf("isolated = %d", s.Isolated)
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 4, 12, 30)
	if g.N() != 12 {
		t.Fatalf("grid size %d", g.N())
	}
	if g.Prob(0, 1) <= g.Prob(0, 3) {
		t.Fatal("adjacent grid nodes should have better links than distant ones")
	}
}

func TestPositionDistance(t *testing.T) {
	a := Position{0, 0, 0}
	b := Position{3, 4, 0}
	if a.Distance(b) != 5 {
		t.Fatalf("distance = %v", a.Distance(b))
	}
	c := Position{0, 0, 2}
	if a.Distance(c) != 2 {
		t.Fatalf("vertical distance = %v", a.Distance(c))
	}
}

// TestNodeSet: one bit per node, Add reports prior membership, and IDs the
// set has no bit for (Broadcast, anything past n) are never members.
func TestNodeSet(t *testing.T) {
	s := NewNodeSet(130)
	if len(s) != 3 {
		t.Fatalf("130 nodes take %d words, want 3", len(s))
	}
	for _, id := range []NodeID{0, 63, 64, 129} {
		if s.Has(id) || s.Add(id) || !s.Has(id) || !s.Add(id) {
			t.Errorf("node %d: Has/Add disagree", id)
		}
	}
	if s.Has(1) || s.Has(65) || s.Has(128) {
		t.Error("a neighbour of a set bit reads as set")
	}
	for _, id := range []NodeID{Broadcast, 192, 1 << 20} {
		if s.Add(id) || s.Has(id) || s.Add(id) {
			t.Errorf("node %d is outside the set and was recorded", id)
		}
	}
	if NodeSet(nil).Has(0) || NodeSet(nil).Add(0) {
		t.Error("the nil set has a member")
	}
}
