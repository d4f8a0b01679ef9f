package routing

import "repro/internal/graph"

// CostModel prices a node as a forwarder beyond what the loss matrix
// already says. The routing metrics add NodePenalty(i), in expected-
// transmission units, to every path/metric contribution that routes a
// packet *through* node i — destinations are never penalized (they are
// where the packet must land, loaded or not). A nil CostModel, or one
// returning 0 for every node, leaves ETX/EOTX bit-identical to the
// loss-only computation: the penalty is applied additively, so a zero
// term cannot perturb float results.
//
// The congestion layer feeds implementations of this interface: queue
// depth EWMAs, drop rates, and credit-grant starvation become a scalar
// load score per node (see congest.Load), scaled by a configured weight
// and sampled globally under oracle state.
type CostModel interface {
	// NodePenalty returns the additive cost of forwarding through node
	// id. Must be deterministic between topology-version bumps: callers
	// cache tables keyed on a version counter and only recompute when
	// told the inputs moved.
	NodePenalty(id graph.NodeID) float64
}

// StaticCost is a map-backed CostModel for tests and offline analysis.
type StaticCost map[graph.NodeID]float64

// NodePenalty returns the mapped penalty, or 0 for absent nodes.
func (s StaticCost) NodePenalty(id graph.NodeID) float64 { return s[id] }

// nodePenalty folds a possibly-nil model into a plain lookup.
func nodePenalty(m CostModel, id, dst graph.NodeID) float64 {
	if m == nil || id == dst {
		return 0
	}
	return m.NodePenalty(id)
}
