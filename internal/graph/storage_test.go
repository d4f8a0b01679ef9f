package graph

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// linkModel is the reference the list storage is checked against: every
// directed link in a map, with the failure bookkeeping (FailLink, Isolate and
// their undo) restated over it.
type linkModel struct {
	links   map[[2]NodeID]float64
	severed map[[2]NodeID]float64
	down    map[NodeID]bool
}

func newLinkModel() *linkModel {
	return &linkModel{
		links:   map[[2]NodeID]float64{},
		severed: map[[2]NodeID]float64{},
		down:    map[NodeID]bool{},
	}
}

func (m *linkModel) clone() *linkModel {
	return &linkModel{maps.Clone(m.links), maps.Clone(m.severed), maps.Clone(m.down)}
}

func (m *linkModel) setDirected(a, b NodeID, p float64) {
	switch {
	case a == b:
	case p > 0:
		m.links[[2]NodeID{a, b}] = p
	default:
		delete(m.links, [2]NodeID{a, b})
	}
}

func (m *linkModel) degrade(drop float64) {
	if drop <= 0 {
		return
	}
	for k, p := range m.links {
		if p *= 1 - math.Min(drop, 1); p > 0 {
			m.links[k] = p
		} else {
			delete(m.links, k)
		}
	}
}

func (m *linkModel) sever(a, b NodeID) {
	k := [2]NodeID{a, b}
	p, ok := m.links[k]
	if !ok {
		return
	}
	if _, dup := m.severed[k]; !dup {
		m.severed[k] = p
	}
	delete(m.links, k)
}

func (m *linkModel) unsever(a, b NodeID) {
	k := [2]NodeID{a, b}
	p, ok := m.severed[k]
	if !ok || m.down[a] || m.down[b] {
		return
	}
	delete(m.severed, k)
	m.links[k] = p
}

func (m *linkModel) isolate(id NodeID) {
	for k := range m.links {
		if k[0] == id || k[1] == id {
			m.sever(k[0], k[1])
		}
	}
	m.down[id] = true
}

func (m *linkModel) restore(id NodeID) {
	if !m.down[id] {
		return
	}
	delete(m.down, id)
	for k := range m.severed {
		if k[0] == id || k[1] == id {
			m.unsever(k[0], k[1])
		}
	}
}

// check compares every query of topo against the model.
func (m *linkModel) check(t *testing.T, topo *Topology, n int, when string) {
	t.Helper()
	out, in := make([][]Edge, n), make([][]Edge, n)
	valid := true
	// Ascending (i, j) order leaves both lists sorted by peer.
	for i := NodeID(0); int(i) < n; i++ {
		for j := NodeID(0); int(j) < n; j++ {
			p, ok := m.links[[2]NodeID{i, j}]
			want := p
			if i == j {
				want = 1
			}
			if got := topo.Prob(i, j); got != want {
				t.Fatalf("%s: Prob(%d,%d) = %v, model %v", when, i, j, got, want)
			}
			if ok {
				out[i] = append(out[i], Edge{Node: j, P: p})
				in[j] = append(in[j], Edge{Node: i, P: p})
				valid = valid && p <= 1
			}
		}
	}
	for i := NodeID(0); int(i) < n; i++ {
		if got := topo.OutEdges(i); !slices.Equal(got, out[i]) {
			t.Fatalf("%s: OutEdges(%d) = %v, model %v", when, i, got, out[i])
		}
		if got := topo.InEdges(i); !slices.Equal(got, in[i]) {
			t.Fatalf("%s: InEdges(%d) = %v, model %v", when, i, got, in[i])
		}
	}
	if got := topo.Edges(); got != len(m.links) {
		t.Fatalf("%s: Edges() = %d, model %d", when, got, len(m.links))
	}
	if err := topo.Validate(); (err == nil) != valid {
		t.Fatalf("%s: Validate() = %v, model valid = %v", when, err, valid)
	}
}

// TestListStorageMatchesModel drives seeded random streams of every mutator
// into a topology and the map model, and checks every query agrees after
// each operation. A Clone step carries on with the copy and keeps checking
// that the original stays where it was.
func TestListStorageMatchesModel(t *testing.T) {
	const n = 10
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		node := func() NodeID { return NodeID(rng.Intn(n)) }
		prob := func() float64 {
			switch r := rng.Intn(20); {
			case r < 4:
				return 0 // delete
			case r == 4:
				return 1.5 // storable, but Validate must object
			default:
				return 1 - rng.Float64() // (0, 1]
			}
		}
		topo, model := New(n), newLinkModel()
		var parent *Topology
		var parentModel *linkModel
		for step := 0; step < 2500; step++ {
			a, b := node(), node()
			var op string
			switch r := rng.Intn(100); {
			case r < 30:
				p := prob()
				op = fmt.Sprintf("SetDirected(%d,%d,%v)", a, b, p)
				topo.SetDirected(a, b, p)
				model.setDirected(a, b, p)
			case r < 50:
				p := prob()
				op = fmt.Sprintf("SetLink(%d,%d,%v)", a, b, p)
				topo.SetLink(a, b, p)
				model.setDirected(a, b, p)
				model.setDirected(b, a, p)
			case r < 53:
				drop := []float64{-0.5, 0, 0.25, 0.5, 1, 2}[rng.Intn(6)]
				op = fmt.Sprintf("Degrade(%v)", drop)
				topo.Degrade(drop)
				model.degrade(drop)
			case r < 65:
				op = fmt.Sprintf("FailLink(%d,%d)", a, b)
				topo.FailLink(a, b)
				model.sever(a, b)
				model.sever(b, a)
			case r < 77:
				op = fmt.Sprintf("RestoreLink(%d,%d)", a, b)
				topo.RestoreLink(a, b)
				model.unsever(a, b)
				model.unsever(b, a)
			case r < 86:
				op = fmt.Sprintf("Isolate(%d)", a)
				topo.Isolate(a)
				model.isolate(a)
			case r < 96:
				op = fmt.Sprintf("Restore(%d)", a)
				topo.Restore(a)
				model.restore(a)
			default:
				op = "Clone"
				parent, parentModel = topo, model
				topo, model = topo.Clone(), model.clone()
			}
			when := fmt.Sprintf("seed %d step %d %s", seed, step, op)
			model.check(t, topo, n, when)
			if parent != nil {
				parentModel.check(t, parent, n, when+" (clone's original)")
			}
		}
	}
}

func TestIndexInvalidatedOnMutation(t *testing.T) {
	topo := New(4)
	topo.SetLink(0, 1, 0.5)
	if got := len(topo.OutEdges(0)); got != 1 {
		t.Fatalf("OutEdges(0) = %d edges, want 1", got)
	}
	topo.SetLink(0, 2, 0.6) // must invalidate the derived index
	if got := len(topo.OutEdges(0)); got != 2 {
		t.Fatalf("OutEdges(0) after mutation = %d edges, want 2", got)
	}
	if got := len(topo.InEdges(0)); got != 2 {
		t.Fatalf("InEdges(0) = %d edges, want 2", got)
	}
	topo.SetDirected(2, 0, 0) // delete one direction
	if got := len(topo.InEdges(0)); got != 1 {
		t.Fatalf("InEdges(0) after delete = %d edges, want 1", got)
	}
}

func TestGeometricDeterministicAndSane(t *testing.T) {
	cfg := DefaultGeometric(300)
	a := Geometric(cfg, 9)
	b := Geometric(cfg, 9)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Pos, b.Pos) {
		t.Fatal("same seed, different positions")
	}
	for i := 0; i < a.N(); i++ {
		if !slices.Equal(a.OutEdges(NodeID(i)), b.OutEdges(NodeID(i))) {
			t.Fatalf("same seed, different edges at node %d", i)
		}
	}
	c := Geometric(cfg, 10)
	if reflect.DeepEqual(a.Pos, c.Pos) {
		t.Fatal("different seeds, identical positions")
	}
	// Link statistics should be testbed-like: a usable mesh, not a clique
	// and not dust.
	s := a.LinkStats(RouteThreshold)
	if s.Links < a.N() {
		t.Fatalf("only %d usable links for %d nodes", s.Links, a.N())
	}
	if s.MeanDegree < 2 || s.MeanDegree > 40 {
		t.Fatalf("mean usable degree %.1f out of sane range", s.MeanDegree)
	}
	// Edges stay local: memory is O(E), far below N².
	if e := a.Edges(); e >= a.N()*a.N()/4 {
		t.Fatalf("edge count %d is not local for n=%d", e, a.N())
	}
}

func TestGeometricMultiFloor(t *testing.T) {
	cfg := DefaultGeometric(120)
	cfg.Floors = 3
	topo := Geometric(cfg, 2)
	floors := map[float64]int{}
	for _, p := range topo.Pos {
		floors[p.Z]++
	}
	if len(floors) != 3 {
		t.Fatalf("expected 3 distinct floor heights, got %v", floors)
	}
}

func TestConnectedGeometric(t *testing.T) {
	topo, seed := ConnectedGeometric(DefaultGeometric(80), 1)
	if !topo.fullyConnected(RouteThreshold) {
		t.Fatalf("seed %d topology not connected", seed)
	}
}

func TestDegrade(t *testing.T) {
	topo := Diamond()
	before := topo.Prob(0, 1)
	topo.Degrade(0.5)
	if got := topo.Prob(0, 1); math.Abs(got-before/2) > 1e-12 {
		t.Fatalf("Degrade(0.5): %v -> %v", before, got)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	topo.Degrade(1)
	if topo.Edges() != 0 {
		t.Fatalf("Degrade(1) left %d edges", topo.Edges())
	}
}

func TestDeliveryCutoff(t *testing.T) {
	mid := 28.0
	cut := DeliveryCutoff(mid)
	if DeliveryFromDistance(cut+1e-9, mid) != 0 {
		t.Fatal("delivery nonzero beyond cutoff")
	}
	if DeliveryFromDistance(cut*0.95, mid) <= 0 {
		t.Fatal("delivery zero just inside cutoff")
	}
}

func TestInEdgesMatchReference(t *testing.T) {
	// The in-edge index is cut from one array: every list equals the one an
	// append per out-edge builds, and has no spare capacity an append by a
	// reader could write into the next list through.
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		topo := New(n)
		for k := rng.Intn(n * n); k > 0; k-- {
			topo.SetDirected(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), rng.Float64())
		}
		want := make([][]Edge, n)
		for i := 0; i < n; i++ {
			for _, e := range topo.OutEdges(NodeID(i)) {
				want[e.Node] = append(want[e.Node], Edge{Node: NodeID(i), P: e.P})
			}
		}
		for j := 0; j < n; j++ {
			got := topo.InEdges(NodeID(j))
			if len(got) != len(want[j]) || (len(got) > 0 && !reflect.DeepEqual(got, want[j])) {
				t.Fatalf("trial %d: in-edges of %d %v, want %v", trial, j, got, want[j])
			}
			if cap(got) != len(got) {
				t.Fatalf("trial %d: in-edges of %d have cap %d, len %d", trial, j, cap(got), len(got))
			}
		}
	}
}
