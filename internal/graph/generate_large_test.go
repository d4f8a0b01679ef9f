package graph

import "testing"

// The Grid and Corridor generators build neighbor lists from a spatial
// candidate index, so memory and time scale with links, not nodes². These
// tests exercise sizes where N² state (10⁸+ float64 cells) would be
// prohibitive.

func TestLargeGridFeasible(t *testing.T) {
	// 120×120 = 14400 nodes: an N×N matrix would be 14400² ≈ 2·10⁸ cells
	// (1.6 GB); the neighbor lists hold only real links.
	topo := Grid(120, 120, 14, 30)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	edges := topo.Edges()
	if edges == 0 {
		t.Fatal("no edges")
	}
	// Bounded degree: each node links only within the channel cutoff (a
	// ~65 m disc at this spacing holds ≈66 grid points), independent of
	// the grid's total size.
	if perNode := float64(edges) / float64(topo.N()); perNode > 80 {
		t.Errorf("mean out-degree %v too high for a cutoff-bounded grid", perNode)
	}
	// Corner-to-corner connectivity over usable links.
	if h := topo.HopCount(0, NodeID(topo.N()-1), RouteThreshold); h <= 0 {
		t.Errorf("corner-to-corner hop count %d", h)
	}
}

func TestLargeCorridorFeasible(t *testing.T) {
	topo := Corridor(5000, 5000*26, 15, 28, 1)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if perNode := float64(topo.Edges()) / float64(topo.N()); perNode > 64 {
		t.Errorf("mean out-degree %v too high for a cutoff-bounded corridor", perNode)
	}
}
