package graph

import (
	"math"
	"testing"
)

// minLink returns the weakest nonzero delivery probability and the number
// of directed links.
func minLink(t *Topology) (float64, int) {
	lo, n := 1.0, 0
	for i := 0; i < t.N(); i++ {
		for _, e := range t.OutEdges(NodeID(i)) {
			lo = math.Min(lo, e.P)
			n++
		}
	}
	return lo, n
}

// TestGeometricKnobs drives the generator knobs the defaults leave alone:
// an explicit area, floor spacing, the shadowing-off exact channel, the
// weak-link cut, and the 50%-delivery range.
func TestGeometricKnobs(t *testing.T) {
	cfg := DefaultGeometric(150)
	cfg.Width, cfg.Height = 100, 50
	cfg.Floors, cfg.FloorSep = 2, 7
	cfg.Shadowing = -1 // exact distance model
	cfg.MinProb = 0.3
	topo := Geometric(cfg, 5)
	for i, p := range topo.Pos {
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 50 {
			t.Fatalf("node %d at (%v, %v) outside the 100x50 area", i, p.X, p.Y)
		}
		if p.Z != 0 && p.Z != 7 {
			t.Fatalf("node %d on floor height %v, want 0 or 7", i, p.Z)
		}
	}
	lo, links := minLink(topo)
	if links == 0 || lo < 0.3 {
		t.Fatalf("%d links, weakest %v: MinProb 0.3 must cut everything below it", links, lo)
	}
	for i := 0; i < topo.N(); i++ {
		for _, e := range topo.OutEdges(NodeID(i)) {
			a, b := topo.Pos[i], topo.Pos[e.Node]
			want := DeliveryFromDistance(a.Distance(b)+8*math.Abs(a.Z-b.Z)/7, cfg.MidRange)
			if e.P != want || topo.Prob(e.Node, NodeID(i)) != want {
				t.Fatalf("link %d->%d = %v (reverse %v), want the exact symmetric channel value %v",
					i, e.Node, e.P, topo.Prob(e.Node, NodeID(i)), want)
			}
		}
	}

	// The default cut keeps weaker links, and halving MidRange over the same
	// area thins the mesh.
	cfg.MinProb = 0
	if lo, _ := minLink(Geometric(cfg, 5)); lo >= 0.3 {
		t.Fatalf("default MinProb left no link under 0.3 (weakest %v)", lo)
	}
	_, wide := minLink(Geometric(cfg, 5))
	cfg.MidRange /= 2
	if _, narrow := minLink(Geometric(cfg, 5)); narrow >= wide {
		t.Fatalf("halving MidRange kept %d links of %d", narrow, wide)
	}
}

// TestTestbedKnobs does the same for the testbed-style generator.
func TestTestbedKnobs(t *testing.T) {
	cfg := DefaultTestbed()
	_, base := minLink(Testbed(cfg, 3))

	cfg.FloorSep = 6
	cfg.Shadowing = 0
	cfg.MinProb = 0.3
	topo := Testbed(cfg, 3)
	for i, p := range topo.Pos {
		if math.Mod(p.Z, 6) != 0 {
			t.Fatalf("node %d on floor height %v, want a multiple of 6", i, p.Z)
		}
	}
	lo, links := minLink(topo)
	if links == 0 || lo < 0.3 {
		t.Fatalf("%d links, weakest %v: MinProb 0.3 must cut everything below it", links, lo)
	}
	for i := 0; i < topo.N(); i++ {
		for _, e := range topo.OutEdges(NodeID(i)) {
			if back := topo.Prob(e.Node, NodeID(i)); back != e.P {
				t.Fatalf("link %d<->%d asymmetric (%v vs %v) with shadowing off", i, e.Node, e.P, back)
			}
		}
	}

	cfg = DefaultTestbed()
	cfg.MidRange /= 2
	if _, narrow := minLink(Testbed(cfg, 3)); narrow >= base {
		t.Fatalf("halving MidRange kept %d links of %d", narrow, base)
	}
}
