package experiments

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/linkstate"
	"repro/internal/sim"
)

// The congestion-control layer is strictly opt-in: with Options.CC left at
// its zero value (policy "none") every simulation must stay byte-identical
// to the pre-congestion code. These goldens pin medium-level counters and
// per-flow outcomes captured before internal/congest existed; any drift in
// RNG draw order, MAC scheduling, generator output, or the (damping-off)
// link-state plane shows up here as an exact-value mismatch.

type goldenCounters struct {
	tx, macAcks, deliveries, collisions, chLosses int64
	airTime                                       sim.Time
}

type goldenFlow struct {
	pkts       int
	completed  bool
	start, end sim.Time
}

func checkGolden(t *testing.T, name string, info RunInfo, wantC goldenCounters, wantF []goldenFlow) {
	t.Helper()
	c := info.Counters
	got := goldenCounters{c.Transmissions, c.MACAcks, c.Deliveries, c.Collisions, c.ChannelLosses, c.AirTime}
	if got != wantC {
		t.Errorf("%s counters: got %+v want %+v", name, got, wantC)
	}
	if len(info.Results) != len(wantF) {
		t.Fatalf("%s: %d flows, want %d", name, len(info.Results), len(wantF))
	}
	for i, r := range info.Results {
		g := goldenFlow{r.PacketsDelivered, r.Completed, r.Start, r.End}
		if g != wantF[i] {
			t.Errorf("%s flow %d: got %+v want %+v", name, i, g, wantF[i])
		}
	}
}

func TestGoldenMORETestbedSingle(t *testing.T) {
	opts := DefaultOptions()
	opts.FileBytes = 64 << 10
	info := RunDetailed(TestbedTopology(), MORE, []Pair{{Src: 3, Dst: 17}}, opts)
	checkGolden(t, "more-testbed-single", info,
		goldenCounters{213, 5, 1093, 0, 1153, 508064608},
		[]goldenFlow{{44, true, 11317816, 545248427}})
}

func TestGoldenMORETestbedMultiFlow(t *testing.T) {
	opts := DefaultOptions()
	opts.FileBytes = 32 << 10
	topo := TestbedTopology()
	pairs := RandomPairs(topo, 3, opts.Seed)
	want := []Pair{{1, 7}, {7, 19}, {1, 18}}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pair %d drifted: got %v want %v", i, pairs[i], want[i])
		}
	}
	info := RunDetailed(topo, MORE, pairs, opts)
	checkGolden(t, "more-testbed-3flows", info,
		goldenCounters{936, 12, 3573, 1, 3105, 2248347328},
		[]goldenFlow{
			{22, true, 132964527, 1511411629},
			{22, true, 34833269, 483469925},
			{22, true, 612488272, 1786332308},
		})
}

func TestGoldenMOREGeometricMultiFlow(t *testing.T) {
	opts := DefaultOptions()
	opts.FileBytes = 32 << 10
	topo, seed := graph.ConnectedGeometric(graph.DefaultGeometric(200), opts.Seed)
	if seed != 1 || topo.Edges() != 4272 {
		t.Fatalf("geometric draw drifted: seed=%d edges=%d", seed, topo.Edges())
	}
	pairs := RandomPairs(topo, 2, opts.Seed)
	info := RunDetailed(topo, MORE, pairs, opts)
	checkGolden(t, "more-geo200-2flows", info,
		goldenCounters{1389, 52, 15897, 783, 20880, 4083021638},
		[]goldenFlow{
			{22, true, 22020904, 1943111229},
			{22, true, 163136329, 1434652428},
		})
}

func TestGoldenExORAndSrcrTestbed(t *testing.T) {
	opts := DefaultOptions()
	opts.FileBytes = 32 << 10
	topo := TestbedTopology()
	info := RunDetailed(topo, ExOR, []Pair{{Src: 3, Dst: 17}}, opts)
	checkGolden(t, "exor-testbed-single", info,
		goldenCounters{140, 0, 941, 0, 533, 235112674},
		[]goldenFlow{{22, true, 72234168, 354639911}})
	info = RunDetailed(topo, Srcr, []Pair{{Src: 3, Dst: 17}}, opts)
	checkGolden(t, "srcr-testbed-single", info,
		goldenCounters{174, 123, 2164, 0, 859, 391641445},
		[]goldenFlow{{22, true, 36212000, 437249628}})
}

// TestGoldenLearnedState pins the measurement plane with flood damping left
// at its default (off): probes, LSA floods, convergence time, and the
// resulting transfer must all match the pre-damping code exactly.
func TestGoldenLearnedState(t *testing.T) {
	if testing.Short() {
		t.Skip("30 s simulated warmup")
	}
	opts := DefaultOptions()
	opts.FileBytes = 32 << 10
	opts.State = StateLearned
	opts.LinkState = linkstate.DefaultConfig()
	info := RunDetailed(TestbedTopology(), MORE, []Pair{{Src: 3, Dst: 17}}, opts)
	checkGolden(t, "more-testbed-learned", info,
		goldenCounters{2752, 2, 17703, 0, 4778, 2243291961},
		[]goldenFlow{{22, true, 29995626492, 30386604849}})
	if info.ProbeTx != 598 || info.FloodTx != 2005 || info.Convergence != 5373783732 {
		t.Errorf("measurement plane drifted: probes=%d floods=%d conv=%d",
			info.ProbeTx, info.FloodTx, info.Convergence)
	}
}

// TestGoldenGeneratorTopologies pins the generator output (link statistics
// and spot-checked probabilities) so a change to the Testbed/Grid/Corridor
// generators provably preserves every draw.
func TestGoldenGeneratorTopologies(t *testing.T) {
	tb := graph.Testbed(graph.DefaultTestbed(), 1)
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
}

// TestGoldenFloodRun pins the standalone link-state flood (20 simulated
// seconds over the default testbed, damping off).
func TestGoldenFloodRun(t *testing.T) {
	tb := graph.Testbed(graph.DefaultTestbed(), 1)
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
