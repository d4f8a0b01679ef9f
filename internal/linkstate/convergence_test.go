package linkstate

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

// Convergence tests: after a warmup window of probing + flooding, every
// node's *learned* ETX table must agree with the table an oracle computes
// over the ground-truth topology — within the tolerance set by the probe
// window's quantization (a 10-probe window can only estimate delivery in
// steps of 0.1, so per-link ETX error of ~15% compounds along a path).

// checkConverged asserts every agent knows every origin and its learned
// ETX distances toward dst sit within tolerance of the oracle's.
func checkConverged(t *testing.T, topo *graph.Topology, agents []*Agent, dst graph.NodeID,
	meanTol, maxTol float64) {
	t.Helper()
	opt := routing.DefaultETXOptions()
	for i, a := range agents {
		if a.KnownOrigins() != topo.N() {
			t.Fatalf("node %d knows %d/%d origins", i, a.KnownOrigins(), topo.N())
		}
		v := NewView(a, opt, 0)
		mean, max, disagree := v.etxError(topo, dst)
		if disagree != 0 {
			t.Errorf("node %d: learned reachability toward %d disagrees with oracle at %d nodes",
				i, dst, disagree)
		}
		if mean > meanTol || max > maxTol {
			t.Errorf("node %d: learned ETX error toward %d too large: mean=%.3f (tol %.3f) max=%.3f (tol %.3f)",
				i, dst, mean, meanTol, max, maxTol)
		}
	}
}

// TestConvergenceAsymmetricLinks floods a chain whose links are markedly
// asymmetric (forward 0.9, reverse 0.6): the learned ACK-aware ETX must
// reflect both directions, which only works if each node's inbound
// estimates make it into everyone else's database via the LSA floods.
func TestConvergenceAsymmetricLinks(t *testing.T) {
	n := 6
	topo := graph.New(n)
	for i := 0; i < n-1; i++ {
		topo.SetDirected(graph.NodeID(i), graph.NodeID(i+1), 0.9)
		topo.SetDirected(graph.NodeID(i+1), graph.NodeID(i), 0.6)
	}
	agents := Run(topo, DefaultConfig(), sim.DefaultConfig(), 60*sim.Second)
	checkConverged(t, topo, agents, graph.NodeID(n-1), 0.20, 0.45)
	checkConverged(t, topo, agents, 0, 0.20, 0.45)
}

// TestConvergenceDegradedTopology floods a lossy-chain topology degraded by
// an extra 25% uniform drop — the Degrade(drop) scenario the scaling
// experiments layer on — and checks the learned tables still track the
// (now harsher) ground truth.
func TestConvergenceDegradedTopology(t *testing.T) {
	topo := graph.LossyChain(6, 15, 30)
	topo.Degrade(0.25)
	cfg := DefaultConfig()
	cfg.Probe.Window = 20 // lossier links need more samples per estimate
	agents := Run(topo, cfg, sim.DefaultConfig(), 120*sim.Second)
	checkConverged(t, topo, agents, graph.NodeID(topo.N()-1), 0.25, 0.60)
}

// TestViewRecomputeHoldoff checks the view's rate limiting: with a large
// MinRecompute the first build is served for subsequent queries even as the
// agent's database keeps changing, and Version stays put.
func TestViewRecomputeHoldoff(t *testing.T) {
	topo := graph.LossyChain(4, 15, 30)
	s := sim.New(topo, sim.DefaultConfig())
	agents := make([]*Agent, topo.N())
	for i := range agents {
		agents[i] = NewAgent(DefaultConfig(), topo.N())
		s.Attach(graph.NodeID(i), agents[i])
	}
	v := NewView(agents[0], routing.DefaultETXOptions(), 1000*sim.Second)
	s.Run(10 * sim.Second)
	_ = v.Graph()
	ver := v.Version()
	builds := v.builds
	s.Run(40 * sim.Second)
	_ = v.Graph()
	if v.builds != builds || v.Version() != ver {
		t.Fatalf("holdoff ignored: builds %d -> %d, version %d -> %d",
			builds, v.builds, ver, v.Version())
	}
	// A zero-holdoff view rebuilt over the same agent does advance.
	v2 := NewView(agents[0], routing.DefaultETXOptions(), 0)
	if v2.Version() == 0 && agents[0].version != 0 {
		t.Fatal("zero-holdoff view did not build")
	}
}

// TestViewETXErrorPerfectInput sanity-checks the error metric itself: a
// view over a fully-informed database must report (near-)zero error against
// the same topology it was told about. Build the database by hand so no
// channel noise is involved.
func TestViewETXErrorPerfectInput(t *testing.T) {
	topo := graph.LossyChain(5, 15, 30)
	s := sim.New(topo, sim.DefaultConfig())
	// Run long enough that the probe window saturates: estimates then sit
	// within one quantization step of the truth on these clean links.
	agents := make([]*Agent, topo.N())
	for i := range agents {
		agents[i] = NewAgent(DefaultConfig(), topo.N())
		s.Attach(graph.NodeID(i), agents[i])
	}
	s.Run(90 * sim.Second)
	v := NewView(agents[0], routing.DefaultETXOptions(), 0)
	mean, max, disagree := v.etxError(topo, graph.NodeID(topo.N()-1))
	if disagree != 0 || math.IsNaN(mean) {
		t.Fatalf("unexpected disagreement: %d (mean %.3f)", disagree, mean)
	}
	if mean > 0.2 || max > 0.5 {
		t.Fatalf("clean-channel learned ETX error too large: mean=%.3f max=%.3f", mean, max)
	}
}
