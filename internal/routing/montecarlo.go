package routing

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// simulateOpportunistic estimates, by Monte Carlo, the expected number of
// transmissions to deliver one packet from src to dst under the idealized
// opportunistic forwarding rule of §5.4: after each broadcast, of all nodes
// that received it (including the transmitter itself), the one with the
// lowest metric forwards. With the EOTX metric this expectation converges
// to EOTX(src) — the equivalence Proposition 4 proves — so the function
// doubles as an empirical validator for the metric algorithms. Any metric
// vector (e.g. ETX distances) can be supplied to measure the cost of a
// different priority order.
//
// Reception draws are independent per receiver, matching the §5.3.1 model.
func simulateOpportunistic(t *graph.Topology, src, dst graph.NodeID, metric []float64, trials int, seed int64) (float64, error) {
	if math.IsInf(metric[src], 1) {
		return 0, errors.New("routing: source unreachable under the supplied metric")
	}
	rng := rand.New(rand.NewSource(seed))
	var total float64
	maxSteps := trials * 10000
	steps := 0
	for trial := 0; trial < trials; trial++ {
		at := src
		for at != dst {
			steps++
			if steps > maxSteps {
				return 0, errors.New("routing: simulation diverged (metric has no descent?)")
			}
			total++
			best := at
			// Reception draws in ascending neighbor order — the same RNG
			// stream as a whole-population scan over nodes with p > 0.
			for _, e := range t.OutEdges(at) {
				if rng.Float64() < e.P && metric[e.Node] < metric[best] {
					best = e.Node
				}
			}
			at = best
		}
	}
	return total / float64(trials), nil
}
