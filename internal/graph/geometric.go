package graph

import (
	"math"
	"math/rand"
)

// GeometricConfig parameterizes the random-geometric generator: n nodes
// placed uniformly over a square (possibly multi-floor) area, linked by the
// testbed generator's channel: the distance→delivery model at MidRange,
// log-normal shadowing, the weak-link cut and the per-floor penalty. It is
// the scaling workhorse: thousand-node meshes cost memory proportional to
// their edges.
type GeometricConfig struct {
	Nodes int
	// TargetDegree is the desired mean number of neighbors within MidRange
	// (default 10). It sizes the placement area: the square whose node
	// density gives each node about that many.
	TargetDegree float64
	// Floors stacks the area into identical floors. Zero or one keeps the
	// layout flat.
	Floors int
}

// DefaultGeometric returns a geometric config producing testbed-like link
// statistics at any node count.
func DefaultGeometric(nodes int) GeometricConfig {
	return GeometricConfig{
		Nodes:        nodes,
		TargetDegree: 10,
		Floors:       1,
	}
}

func (cfg *GeometricConfig) fillDefaults() {
	if cfg.TargetDegree <= 0 {
		cfg.TargetDegree = 10
	}
	if cfg.Floors < 1 {
		cfg.Floors = 1
	}
}

// Geometric generates a random-geometric topology. The same seed
// always produces the same topology, independent of the spatial index's
// internals: positions are drawn in node order and link noise in ascending
// (i, j) pair order over the candidate pairs within the channel cutoff.
func Geometric(cfg GeometricConfig, seed int64) *Topology {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(seed))
	t := New(cfg.Nodes)
	// The square where a MidRange disc holds ~TargetDegree nodes:
	// side² = n·π·mid² / degree.
	side := MidRange * math.Sqrt(float64(cfg.Nodes)*math.Pi/cfg.TargetDegree)
	perFloor := (cfg.Nodes + cfg.Floors - 1) / cfg.Floors
	for i := 0; i < cfg.Nodes; i++ {
		floor := i / perFloor
		t.Pos[i] = Position{
			X: rng.Float64() * side,
			Y: rng.Float64() * side,
			Z: float64(floor) * floorSep,
		}
	}
	// Candidate links only within the channel cutoff: beyond it the base
	// delivery is exactly zero (and the floor penalty only shrinks it), so
	// the spatial search is exhaustive, not approximate.
	cutoff := DeliveryCutoff(MidRange)
	idx := NewSpatialIndex(t.Pos, cutoff)
	for i := 0; i < cfg.Nodes; i++ {
		iid := NodeID(i)
		for _, j := range idx.Near(iid, cutoff) {
			if j <= iid {
				continue
			}
			d := t.Pos[i].Distance(t.Pos[j])
			floors := math.Abs(t.Pos[i].Z-t.Pos[j].Z) / floorSep
			p := DeliveryFromDistance(d+8*floors, MidRange)
			if p <= 0 {
				continue
			}
			sym := rng.NormFloat64() * shadowing
			asym := rng.NormFloat64() * shadowing * 0.25
			pij := logistic(logit(p) + sym + asym)
			pji := logistic(logit(p) + sym - asym)
			if pij >= minProb {
				t.SetDirected(iid, j, pij)
			}
			if pji >= minProb {
				t.SetDirected(j, iid, pji)
			}
		}
	}
	return t
}

// ConnectedGeometric keeps drawing geometric topologies (bumping the seed)
// until every node can reach every other over usable links (delivery >
// RouteThreshold in both directions). It returns the topology and the seed
// that produced it, and gives up (returning the last draw) after 64
// attempts — at sensible densities the first draw almost always connects.
func ConnectedGeometric(cfg GeometricConfig, seed int64) (*Topology, int64) {
	var t *Topology
	s := seed
	for attempt := 0; attempt < 64; attempt++ {
		t = Geometric(cfg, s)
		if t.fullyConnected(RouteThreshold) {
			return t, s
		}
		s++
	}
	return t, s - 1
}
