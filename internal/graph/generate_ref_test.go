package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The generators find their candidate pairs through SpatialIndex.Pairs. The
// references below are the same generators over every pair i < j, with the
// cutoff tested pair by pair: the draws, and so the topologies, must agree
// bit for bit.

func refGeometric(cfg GeometricConfig, seed int64) *Topology {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(seed))
	t := New(cfg.Nodes)
	side := MidRange * math.Sqrt(float64(cfg.Nodes)*math.Pi/cfg.TargetDegree)
	perFloor := (cfg.Nodes + cfg.Floors - 1) / cfg.Floors
	for i := range t.Pos {
		t.Pos[i] = Position{X: rng.Float64() * side, Y: rng.Float64() * side, Z: float64(i/perFloor) * floorSep}
	}
	cutoff := DeliveryCutoff(MidRange)
	for i := 0; i < cfg.Nodes; i++ {
		for j := i + 1; j < cfg.Nodes; j++ {
			d := t.Pos[i].Distance(t.Pos[j])
			if d > cutoff {
				continue
			}
			floors := math.Abs(t.Pos[i].Z-t.Pos[j].Z) / floorSep
			p := DeliveryFromDistance(d+float64(8*floors), MidRange)
			if p <= 0 {
				continue
			}
			sym := rng.NormFloat64() * shadowing
			asym := rng.NormFloat64() * shadowing * 0.25
			if pij := logistic(logit(p) + float64(sym) + float64(asym)); pij >= minProb {
				t.SetDirected(NodeID(i), NodeID(j), pij)
			}
			if pji := logistic(logit(p) + float64(sym) - float64(asym)); pji >= minProb {
				t.SetDirected(NodeID(j), NodeID(i), pji)
			}
		}
	}
	return t
}

func refGrid(rows, cols int, spacing, midRange float64) *Topology {
	t := New(rows * cols)
	for i := range t.Pos {
		t.Pos[i] = Position{float64(i%cols) * spacing, float64(i/cols) * spacing, 0}
	}
	cutoff := DeliveryCutoff(midRange)
	for i := range t.Pos {
		for j := i + 1; j < len(t.Pos); j++ {
			d := t.Pos[i].Distance(t.Pos[j])
			if p := DeliveryFromDistance(d, midRange); d <= cutoff && p > 0 {
				t.SetLink(NodeID(i), NodeID(j), p)
			}
		}
	}
	return t
}

func refCorridor(n int, length, width, midRange float64, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	t := New(n)
	for i := range t.Pos {
		base := length * float64(i) / float64(n-1)
		t.Pos[i] = Position{X: base + rng.NormFloat64()*length/float64(4*n), Y: rng.Float64() * width}
	}
	cutoff := DeliveryCutoff(midRange)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := t.Pos[i].Distance(t.Pos[j])
			p := DeliveryFromDistance(d, midRange)
			if d > cutoff || p <= 0 {
				continue
			}
			sym := rng.NormFloat64() * 0.5
			if pij := logistic(logit(p) + float64(sym)); pij >= 0.05 {
				t.SetDirected(NodeID(i), NodeID(j), pij)
				t.SetDirected(NodeID(j), NodeID(i), logistic(logit(p)+float64(sym)))
			}
		}
	}
	return t
}

// sameTopology compares positions and every out-edge bit for bit.
func sameTopology(got, want *Topology) error {
	if got.N() != want.N() {
		return fmt.Errorf("%d nodes, want %d", got.N(), want.N())
	}
	for i := range want.Pos {
		if got.Pos[i] != want.Pos[i] {
			return fmt.Errorf("node %d at %v, want %v", i, got.Pos[i], want.Pos[i])
		}
		g, w := got.OutEdges(NodeID(i)), want.OutEdges(NodeID(i))
		if len(g) != len(w) {
			return fmt.Errorf("node %d has %d out-edges, want %d", i, len(g), len(w))
		}
		for k := range w {
			if g[k].Node != w[k].Node || math.Float64bits(g[k].P) != math.Float64bits(w[k].P) {
				return fmt.Errorf("node %d edge %d is %+v, want %+v", i, k, g[k], w[k])
			}
		}
	}
	return nil
}

// TestGeneratorsMatchAllPairsReference: Geometric, Grid and Corridor equal
// their all-pairs references over a range of seeds and sizes — flat and
// multi-floor meshes (20 floors span 76 m, more than the delivery cutoff,
// so the index stacks two layers of cells), sparse and dense, grids whose spacing puts pairs on
// and across the index's cell boundaries, short and long corridors.
func TestGeneratorsMatchAllPairsReference(t *testing.T) {
	check := func(what string, got, want *Topology) {
		t.Helper()
		if err := sameTopology(got, want); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want.N() > 20 && want.Edges() == 0 {
			t.Fatalf("%s: the reference has no links, so the case checks nothing", what)
		}
	}
	seed := int64(1)
	for _, n := range []int{2, 17, 60, 150, 400} {
		for _, floors := range []int{1, 3, 20} {
			for _, degree := range []float64{4, 10, 25} {
				cfg := GeometricConfig{Nodes: n, TargetDegree: degree, Floors: floors}
				seed++
				check(fmt.Sprintf("Geometric(%+v, %d)", cfg, seed), Geometric(cfg, seed), refGeometric(cfg, seed))
			}
		}
	}
	for _, g := range []struct {
		rows, cols   int
		spacing, mid float64
	}{{1, 1, 10, 28}, {3, 7, 5, 10}, {12, 12, 14, 28}, {20, 5, 30, 30}, {9, 11, DeliveryCutoff(28) / 2, 28}} {
		check(fmt.Sprintf("Grid(%+v)", g), Grid(g.rows, g.cols, g.spacing, g.mid), refGrid(g.rows, g.cols, g.spacing, g.mid))
	}
	for _, n := range []int{3, 30, 200} {
		for _, width := range []float64{15, 40} {
			seed++
			length := float64(n) * 26
			check(fmt.Sprintf("Corridor(%d, %v, %v, 28, %d)", n, length, width, seed),
				Corridor(n, length, width, 28, seed), refCorridor(n, length, width, 28, seed))
		}
	}
}

// TestFullyConnectedMatchesSearch: the union-find over cursor-read reverse
// links gives the answer of a search from node 0 that reads each reverse
// link with Prob, on connected and disconnected meshes and on random
// directed graphs with one-way links.
func TestFullyConnectedMatchesSearch(t *testing.T) {
	search := func(topo *Topology, threshold float64) bool {
		n := topo.N()
		if n == 0 {
			return true
		}
		seen := make([]bool, n)
		seen[0] = true
		stack, count := []NodeID{0}, 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range topo.OutEdges(u) {
				if !seen[e.Node] && e.P > threshold && topo.Prob(e.Node, u) > threshold {
					seen[e.Node] = true
					count++
					stack = append(stack, e.Node)
				}
			}
		}
		return count == n
	}
	rng := rand.New(rand.NewSource(23))
	verdicts := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		var topo *Topology
		if trial%2 == 0 {
			topo = Geometric(GeometricConfig{Nodes: 1 + rng.Intn(80), TargetDegree: 2 + rng.Float64()*10}, rng.Int63())
		} else {
			n := rng.Intn(12)
			topo = New(n)
			for k := rng.Intn(3*n + 1); k > 0; k-- {
				topo.SetDirected(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), rng.Float64())
			}
		}
		threshold := []float64{0, RouteThreshold, 0.6}[trial%3]
		want := search(topo, threshold)
		if got := topo.fullyConnected(threshold); got != want {
			t.Fatalf("trial %d (%d nodes, threshold %v): fullyConnected %v, search %v", trial, topo.N(), threshold, got, want)
		}
		verdicts[want]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v: both answers must occur", verdicts)
	}
}
