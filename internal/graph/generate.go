package graph

import (
	"math"
	"math/rand"
)

// Diamond returns the Fig 1-1 motivating topology:
//
//	src --0.70--> R --0.80--> dst, with a lossy direct src->dst link of 0.49.
//
// Node order: 0 = src, 1 = R, 2 = dst. The direct-link probability of 0.49
// is the paper's: the ETX of src->R->dst is 2, smaller than the direct
// path's 1/0.49 ≈ 2.04.
func Diamond() *Topology {
	t := New(3)
	t.Pos[0] = Position{0, 0, 0}
	t.Pos[1] = Position{25, 0, 0}
	t.Pos[2] = Position{50, 0, 0}
	t.SetLink(0, 1, 0.70)
	t.SetLink(1, 2, 0.80)
	t.SetLink(0, 2, 0.49)
	return t
}

// Line returns an n-node chain with the given per-hop delivery probability
// and zero probability elsewhere (no skipping). Nodes sit spacing meters
// apart on the X axis.
func Line(n int, hopProb, spacing float64) *Topology {
	t := New(n)
	for i := 0; i < n; i++ {
		t.Pos[i] = Position{float64(i) * spacing, 0, 0}
	}
	for i := 0; i+1 < n; i++ {
		t.SetLink(NodeID(i), NodeID(i+1), hopProb)
	}
	return t
}

// LossyChain returns an n-node chain where every pair of nodes has delivery
// probability derived from their distance, so transmissions can
// opportunistically skip hops (Fig 2-1(a)). spacing controls hop distance;
// midRange the channel model's 50% distance.
func LossyChain(n int, spacing, midRange float64) *Topology {
	t := New(n)
	for i := 0; i < n; i++ {
		t.Pos[i] = Position{float64(i) * spacing, 0, 0}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := t.Pos[i].Distance(t.Pos[j])
			t.SetLink(NodeID(i), NodeID(j), DeliveryFromDistance(d, midRange))
		}
	}
	return t
}

// GapTopology returns the Fig 5-1 topology that exhibits an unbounded
// ETX-order vs EOTX-order cost gap.
//
// Layout (returned IDs):
//
//	0 = src, 1 = A, 2 = B, 3..3+k-1 = C_1..C_k, 3+k = dst.
//
// Links (delivery probabilities, independent losses):
//
//	src -> A : 1.0       A -> dst : p
//	src -> B : 1.0       B -> C_i : p (for each i)
//	C_i -> dst : 1.0
//
// ETX(A) = 1/p, ETX(B) = 1 + 1/p (via any C_i), ETX(C_i) = 1. In ETX order
// B is farther than the source (ETX(src) = 1 + 1/p via A), so B is
// discarded as a forwarder; the ETX-order cost is 1 + 1/p. With EOTX order,
// routing through B costs 1 + 1/(1-(1-p)^k) + 1, which stays bounded as
// p -> 0, so the ratio approaches k.
func GapTopology(k int, p float64) *Topology {
	n := 3 + k + 1
	t := New(n)
	src, a, b := NodeID(0), NodeID(1), NodeID(2)
	dst := NodeID(3 + k)
	t.SetDirected(src, a, 1)
	t.SetDirected(a, src, 1)
	t.SetDirected(src, b, 1)
	t.SetDirected(b, src, 1)
	t.SetDirected(a, dst, p)
	t.SetDirected(dst, a, p)
	for i := 0; i < k; i++ {
		c := NodeID(3 + i)
		t.SetDirected(b, c, p)
		t.SetDirected(c, b, p)
		t.SetDirected(c, dst, 1)
		t.SetDirected(dst, c, 1)
	}
	// Rough positions for visualization only.
	t.Pos[src] = Position{0, 0, 0}
	t.Pos[a] = Position{20, 20, 0}
	t.Pos[b] = Position{20, -20, 0}
	for i := 0; i < k; i++ {
		t.Pos[3+i] = Position{40, -10 - 3*float64(i), 0}
	}
	t.Pos[dst] = Position{60, 0, 0}
	return t
}

// Fixed channel and building parameters of the Testbed and Geometric
// generators, tuned so the 20-node draw has §4.1's link-loss spread. No run
// varies them.
const (
	// MidRange is the distance, in meters, at which delivery ≈ 50 % at the
	// reference rate. Exported because experiments derives the
	// carrier-sense range from it.
	MidRange float64 = 28
	// floorSep is the vertical separation between floors, meters.
	floorSep float64 = 4
	// shadowing is the std-dev of the per-link log-odds noise.
	shadowing float64 = 1.1
	// minProb cuts links with a weaker delivery probability to zero.
	minProb float64 = 0.05
)

// The shape of §4.1's testbed: 20 nodes over 3 floors of a 120 m × 80 m
// building. With the channel constants above, link loss rates on usable
// links (delivery > RouteThreshold) range from ≈ 0 to ≈ 80 % and average
// ≈ 0.3, and shortest usable paths span 1–5 hops.
const (
	testbedNodes  = 20
	testbedFloors = 3
	floorW        = 120.0 // floor width, meters
	floorH        = 80.0  // floor depth, meters
)

// RouteThreshold is the delivery probability above which a link is
// considered usable for route and forwarder selection. Weaker links still
// deliver packets in the channel simulation — that residual connectivity is
// precisely the opportunistic-reception fodder MORE and ExOR exploit — but
// protocols do not plan on them.
const RouteThreshold = 0.2

// Testbed generates a random topology shaped like §4.1's indoor testbed.
// The same seed always produces the same topology. Per-link shadowing noise
// is applied in log-odds space and symmetrically correlated (the same
// obstruction affects both directions), with a small asymmetric component,
// matching the mildly asymmetric links observed on real meshes.
//
// Pairs are visited in ascending (i, j) order, which fixes the order of the
// noise draws; a pair beyond the channel cutoff draws none (its base
// delivery is exactly zero).
func Testbed(seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	t := New(testbedNodes)
	perFloor := testbedNodes / testbedFloors
	for i := 0; i < testbedNodes; i++ {
		floor := min(i/perFloor, testbedFloors-1)
		t.Pos[i] = Position{
			X: rng.Float64() * floorW,
			Y: rng.Float64() * floorH,
			Z: float64(floor) * floorSep,
		}
	}
	for i := 0; i < testbedNodes; i++ {
		for j := i + 1; j < testbedNodes; j++ {
			d := t.Pos[i].Distance(t.Pos[j])
			// Crossing floors is harder than the straight-line distance
			// suggests: add an effective distance penalty per floor crossed.
			floors := math.Abs(t.Pos[i].Z-t.Pos[j].Z) / floorSep
			eff := d + 8*floors
			p := DeliveryFromDistance(eff, MidRange)
			if p <= 0 {
				continue
			}
			// Symmetric shadowing plus small asymmetry, in log-odds space.
			sym := rng.NormFloat64() * shadowing
			asym := rng.NormFloat64() * shadowing * 0.25
			pij := logistic(logit(p) + sym + asym)
			pji := logistic(logit(p) + sym - asym)
			if pij >= minProb {
				t.SetDirected(NodeID(i), NodeID(j), pij)
			}
			if pji >= minProb {
				t.SetDirected(NodeID(j), NodeID(i), pji)
			}
		}
	}
	return t
}

func logit(p float64) float64 {
	if p <= 0 {
		return -12
	}
	if p >= 1 {
		return 12
	}
	return math.Log(p / (1 - p))
}

func logistic(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}

// ConnectedTestbed keeps drawing testbed topologies (bumping the seed) until
// every node can reach every other over usable links (delivery >
// RouteThreshold in both directions), so best-path routing always has a
// route. It returns the topology and the seed that produced it.
func ConnectedTestbed(seed int64) (*Topology, int64) {
	for s := seed; ; s++ {
		t := Testbed(s)
		if t.fullyConnected(RouteThreshold) {
			return t, s
		}
	}
}

func (t *Topology) fullyConnected(threshold float64) bool {
	n := t.N()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.OutEdges(u) {
			if !seen[e.Node] && e.P > threshold && t.Prob(e.Node, u) > threshold {
				seen[e.Node] = true
				count++
				stack = append(stack, e.Node)
			}
		}
	}
	return count == n
}

// Grid returns an r x c grid with the given spacing and distance-derived
// delivery probabilities. Candidate links come from a spatial index over the
// channel cutoff, so arbitrarily large grids cost memory and time
// proportional to their links, not rows²·cols².
func Grid(rows, cols int, spacing, midRange float64) *Topology {
	t := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Pos[r*cols+c] = Position{float64(c) * spacing, float64(r) * spacing, 0}
		}
	}
	cutoff := DeliveryCutoff(midRange)
	idx := NewSpatialIndex(t.Pos, cutoff)
	for i := 0; i < t.N(); i++ {
		iid := NodeID(i)
		for _, j := range idx.Near(iid, cutoff) {
			if j <= iid {
				continue
			}
			d := t.Pos[i].Distance(t.Pos[j])
			if p := DeliveryFromDistance(d, midRange); p > 0 {
				t.SetLink(iid, j, p)
			}
		}
	}
	return t
}

// Corridor generates a long, thin topology (nodes scattered along a
// corridor), which yields the 4+-hop paths with first-hop/last-hop
// concurrency that the spatial-reuse experiment (Fig 4-4) selects for.
// Like Testbed, candidate pairs within the channel cutoff are visited in
// ascending order (which fixes the noise draws), so corridors of any length
// stay O(links).
func Corridor(n int, length, width, midRange float64, seed int64) *Topology {
	rng := rand.New(rand.NewSource(seed))
	t := New(n)
	for i := 0; i < n; i++ {
		// Spread nodes roughly evenly along the corridor with jitter so
		// hop structure is stable but not degenerate.
		base := length * float64(i) / float64(n-1)
		t.Pos[i] = Position{
			X: base + rng.NormFloat64()*length/float64(4*n),
			Y: rng.Float64() * width,
			Z: 0,
		}
	}
	cutoff := DeliveryCutoff(midRange)
	idx := NewSpatialIndex(t.Pos, cutoff)
	for i := 0; i < n; i++ {
		iid := NodeID(i)
		for _, j := range idx.Near(iid, cutoff) {
			if j <= iid {
				continue
			}
			d := t.Pos[i].Distance(t.Pos[j])
			p := DeliveryFromDistance(d, midRange)
			if p <= 0 {
				continue
			}
			sym := rng.NormFloat64() * 0.5
			pij := logistic(logit(p) + sym)
			pji := logistic(logit(p) + sym)
			if pij >= 0.05 {
				t.SetDirected(iid, j, pij)
				t.SetDirected(j, iid, pji)
			}
		}
	}
	return t
}
