package experiments

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/linkstate"
	"repro/internal/sim"
)

// This file pins generators. Runs are pinned as specs under scenarios/ with
// goldens (scenario.TestGoldenScenarios), re-blessed by `go test
// ./internal/scenario -update`.

// TestGoldenGeneratorTopologies pins the generator output (link statistics
// and spot-checked probabilities) so a change to the Testbed, Corridor, Grid
// or random-geometric generators provably preserves every draw.
func TestGoldenGeneratorTopologies(t *testing.T) {
	tb := graph.Testbed(1)
	s := tb.LinkStats(graph.RouteThreshold)
	if s.Links != 40 || s.MeanDegree != 4.0 {
		t.Errorf("testbed stats drifted: links=%d meandeg=%v", s.Links, s.MeanDegree)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: got %.12f want %.12f", name, got, want)
		}
	}
	approx("testbed p(3,17)", tb.Prob(3, 17), 0)
	approx("testbed p(0,5)", tb.Prob(0, 5), 0.977233753)
	approx("testbed p(12,7)", tb.Prob(12, 7), 0.771455052)

	co := graph.Corridor(12, 12*26, 15, 28, 7)
	sc := co.LinkStats(graph.RouteThreshold)
	if sc.Links != 9 || co.Edges() != 22 {
		t.Errorf("corridor stats drifted: links=%d edges=%d", sc.Links, co.Edges())
	}
	approx("corridor p(0,1)", co.Prob(0, 1), 0.338070600)
	approx("corridor p(3,5)", co.Prob(3, 5), 0)

	gr := graph.Grid(4, 5, 14, 30)
	sg := gr.LinkStats(graph.RouteThreshold)
	if sg.Links != 111 || gr.Edges() != 376 {
		t.Errorf("grid stats drifted: links=%d edges=%d", sg.Links, gr.Edges())
	}
	approx("grid p(0,1)", gr.Prob(0, 1), 0.918657328)
	approx("grid p(0,19)", gr.Prob(0, 19), 0)

	geo, seed := graph.ConnectedGeometric(graph.DefaultGeometric(200), 1)
	if seed != 1 || geo.Edges() != 4272 {
		t.Errorf("geometric draw drifted: seed=%d edges=%d", seed, geo.Edges())
	}
}

// TestGoldenFloodRun pins the standalone link-state flood (20 simulated
// seconds over the default testbed, damping off).
func TestGoldenFloodRun(t *testing.T) {
	tb := graph.Testbed(1)
	agents := linkstate.Run(tb, linkstate.DefaultConfig(), sim.DefaultConfig(), 20*sim.Second)
	var flood int64
	known := 0
	for _, a := range agents {
		flood += a.FloodTx
		known += a.KnownOrigins()
	}
	if flood != 620 || known != 312 {
		t.Errorf("flood drifted: floodtx=%d known=%d (want 620, 312)", flood, known)
	}
}
