package experiments

import (
	"repro/internal/congest"
)

// The congestion-mitigation sweep: re-run the PR 2 blow-up curve (tx-per-
// packet exploding with node count under multi-flow load) once per
// congestion policy, over identical topologies, flows, and seeds, so the
// only difference between rows is the mitigation. This is the driver
// behind the PERFORMANCE.md mitigation tables and the `moresim -scale
// ... -cc-sweep` mode.

// allPolicies lists the congestion policies the sweep compares, in
// comparison order.
func allPolicies() []congest.Policy {
	return []congest.Policy{congest.None, congest.Tail, congest.Choke, congest.Credit, congest.AIMD}
}

// CCSweep runs the scaling sweep cfg describes once per policy (none, tail,
// choke, credit, aimd) and returns the grid in policy-major order (all node
// counts for the first policy, then the next); each point's CC field names
// its policy. cfg.Opts.CC is overridden per policy: each runs with
// DefaultConfig knobs except QueueLen, which cfg.Opts.CC.QueueLen overrides
// when set. Every cell is deterministic in the seed; policies share
// topologies and flow pairs, so rows are directly comparable.
func CCSweep(cfg ScalingConfig) []ScalingPoint {
	queueLen := cfg.Opts.CC.QueueLen
	type cell struct {
		policy congest.Policy
		idx    int
	}
	var cells []cell
	for _, p := range allPolicies() {
		for i := range cfg.NodeCounts {
			cells = append(cells, cell{p, i})
		}
	}
	points := make([]ScalingPoint, len(cells))
	forEach(len(cells), cfg.Opts.workers(), func(i int) {
		sc := cfg
		sc.Opts.CC = congest.DefaultConfig(cells[i].policy)
		sc.Opts.CC.QueueLen = queueLen
		points[i] = runScalingPoint(sc, cells[i].idx)
	})
	return points
}
