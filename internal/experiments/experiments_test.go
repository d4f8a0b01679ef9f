package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/gf256"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// quickOpts returns a reduced-scale configuration so the experiment suite
// exercises every driver in seconds. cmd/morebench runs the paper scale.
func quickOpts() Options {
	o := DefaultOptions()
	o.FileBytes = 96 * 1500 // 3 batches at K=32
	return o
}

func TestFig42Shape(t *testing.T) {
	topo := TestbedTopology()
	res := Fig42UnicastThroughput(topo, 12, quickOpts())
	if len(res.Pairs) != 12 {
		t.Fatalf("got %d pairs", len(res.Pairs))
	}
	for _, proto := range []Protocol{MORE, ExOR, Srcr} {
		if len(res.Throughput[proto]) != 12 {
			t.Fatalf("%v has %d samples", proto, len(res.Throughput[proto]))
		}
		for _, x := range res.Throughput[proto] {
			if x <= 0 || math.IsNaN(x) {
				t.Fatalf("%v produced throughput %v", proto, x)
			}
		}
	}
	// The headline orderings of Fig 4-2.
	gainExor := res.medianGain(MORE, ExOR)
	gainSrcr := res.medianGain(MORE, Srcr)
	if gainExor < 0 {
		t.Errorf("MORE median below ExOR: %+.0f%% (paper: +22%%)", gainExor)
	}
	if gainSrcr < 40 {
		t.Errorf("MORE vs Srcr gain %+.0f%% too small (paper: +95%%)", gainSrcr)
	}
	if res.maxGain(MORE, Srcr) < 2 {
		t.Errorf("max MORE/Srcr gain %.1fx lacks a challenged tail", res.maxGain(MORE, Srcr))
	}
	if !strings.Contains(res.Table(), "MORE") {
		t.Error("table rendering broken")
	}
}

func TestFig43ChallengedFlowsGainMost(t *testing.T) {
	topo := TestbedTopology()
	res := Fig42UnicastThroughput(topo, 12, quickOpts())
	bottom, top, bottomOK, topOK := res.ChallengedGain(MORE)
	if !bottomOK || !topOK {
		t.Fatalf("a half without samples: challenged %v, good %v", bottomOK, topOK)
	}
	if bottom <= top {
		t.Errorf("challenged flows gain %.2fx <= good flows %.2fx; Fig 4-3 shape lost", bottom, top)
	}
	if bottom < 1.2 {
		t.Errorf("challenged gain %.2fx too small", bottom)
	}
}

// TestChallengedGainReportsEmptyHalves: a half with no pair of positive
// Srcr throughput has no gain, and says so instead of reading 0x.
func TestChallengedGainReportsEmptyHalves(t *testing.T) {
	for _, c := range []struct {
		name            string
		srcr, more      []float64
		bottom, top     float64
		bottomOK, topOK bool
	}{
		{"one pair", []float64{10}, []float64{20}, 0, 2, false, true},
		{"challenged half all zero", []float64{0, 20, 0, 10}, []float64{5, 60, 6, 20}, 0, 2.5, false, true},
		{"both halves sampled", []float64{4, 20, 2, 10}, []float64{12, 60, 8, 20}, 3.5, 2.5, true, true},
	} {
		r := &ThroughputResult{
			Pairs:      make([]Pair, len(c.srcr)),
			Throughput: map[Protocol][]float64{Srcr: c.srcr, MORE: c.more},
		}
		bottom, top, bottomOK, topOK := r.ChallengedGain(MORE)
		if bottom != c.bottom || top != c.top || bottomOK != c.bottomOK || topOK != c.topOK {
			t.Errorf("%s: got %v/%v ok %v/%v, want %v/%v ok %v/%v", c.name,
				bottom, top, bottomOK, topOK, c.bottom, c.top, c.bottomOK, c.topOK)
		}
	}
}

func TestFig44SpatialReuseShape(t *testing.T) {
	opts := quickOpts()
	// Eight pairs rather than the bare minimum: the median gain over a
	// 5-pair sample swings with the rng realization, while 8+ pairs hold
	// the Fig 4-4 shape stably.
	res := Fig44SpatialReuse(8, opts)
	if len(res.Pairs) < 6 {
		t.Fatalf("found only %d spatial-reuse pairs", len(res.Pairs))
	}
	gain := res.medianGain(MORE, ExOR)
	// Paper: +50% visible on these flows, clearly above the testbed-wide
	// (+22%) figure. Accept anything solidly positive at test scale.
	if gain < 15 {
		t.Errorf("spatial-reuse MORE vs ExOR gain %+.0f%% too small (paper: +50%%)", gain)
	}
}

func TestFig45MultiFlowShape(t *testing.T) {
	topo := TestbedTopology()
	opts := quickOpts()
	opts.FileBytes = 64 * 1500
	res := Fig45MultiFlow(topo, 3, 3, opts)
	if len(res.FlowCounts) != 3 {
		t.Fatalf("flow counts %v", res.FlowCounts)
	}
	for _, proto := range []Protocol{MORE, ExOR, Srcr} {
		if len(res.Avg[proto]) != 3 {
			t.Fatalf("%v has %d points", proto, len(res.Avg[proto]))
		}
		// Per-flow average throughput should fall as flows are added.
		if res.Avg[proto][2] >= res.Avg[proto][0] {
			t.Errorf("%v: per-flow throughput did not fall with congestion: %v", proto, res.Avg[proto])
		}
	}
	// Opportunistic routing keeps its lead under light load and degrades
	// gracefully toward traditional routing under congestion (§4.3: "it
	// smoothly degenerates to the behavior of traditional routing").
	if res.Avg[MORE][0] < res.Avg[Srcr][0] {
		t.Errorf("MORE below Srcr for a single flow: %.1f vs %.1f",
			res.Avg[MORE][0], res.Avg[Srcr][0])
	}
	for i := range res.FlowCounts {
		if res.Avg[MORE][i] < 0.8*res.Avg[Srcr][i] {
			t.Errorf("MORE collapsed below Srcr at %d flows: %.1f vs %.1f",
				res.FlowCounts[i], res.Avg[MORE][i], res.Avg[Srcr][i])
		}
	}
	if !strings.Contains(res.Table(), "flows") {
		t.Error("table rendering broken")
	}
}

func TestFig46AutorateShape(t *testing.T) {
	topo := TestbedTopology()
	opts := quickOpts()
	res := Fig46Autorate(topo, 8, opts)
	medMORE := stats.Median(res.Throughput["MORE@11"])
	medAuto := stats.Median(res.Throughput["Srcr-auto"])
	if medMORE <= medAuto {
		t.Errorf("MORE@11 (%.1f) did not preserve its gain over Srcr autorate (%.1f)", medMORE, medAuto)
	}
	// §4.4: a noticeable share of autorate transmissions happen at 1 Mb/s
	// and consume a disproportionate share of air time.
	if res.LowRateTxFrac > 0 && res.LowRateAirFrac <= res.LowRateTxFrac {
		t.Errorf("1 Mb/s air-time share %.2f should exceed its tx share %.2f",
			res.LowRateAirFrac, res.LowRateTxFrac)
	}
	if !strings.Contains(res.Table(), "autorate") {
		t.Error("table rendering broken")
	}
}

// TestLowRateSharesIgnoreMapOrder: three rates whose air times, summed as
// float seconds, give different totals in different orders (0.1 + 0.2 + 0.3
// is 0.6 or 0.6000000000000001). Go walks a map in a random order each time,
// so folding the same counters 100 times must still give one answer, and it
// must be the integer one.
func TestLowRateSharesIgnoreMapOrder(t *testing.T) {
	c := sim.Counters{
		TxByRate: map[sim.Bitrate]int64{sim.Rate1: 3, sim.Rate2: 5, sim.Rate11: 7},
		AirTimeByRate: map[sim.Bitrate]sim.Time{
			sim.Rate1:  100 * sim.Millisecond,
			sim.Rate2:  200 * sim.Millisecond,
			sim.Rate11: 300 * sim.Millisecond,
		},
	}
	wantTx, wantAir := 3.0/15.0, float64(100*sim.Millisecond)/float64(600*sim.Millisecond)
	for i := 0; i < 100; i++ {
		tx, air := lowRateShares([]sim.Counters{c, c})
		if tx != wantTx || air != wantAir {
			t.Fatalf("fold %d: shares %v / %v, want %v / %v", i, tx, air, wantTx, wantAir)
		}
	}
	if tx, air := lowRateShares(nil); tx != 0 || air != 0 {
		t.Errorf("no runs: shares %v / %v, want 0 / 0", tx, air)
	}
}

func TestFig47BatchSizeShape(t *testing.T) {
	topo := TestbedTopology()
	opts := quickOpts()
	opts.FileBytes = 128 * 1500
	res := Fig47BatchSize(topo, []int{8, 32}, 6, opts)
	// §4.5: ExOR suffers at K=8; MORE is much less sensitive.
	moreSens := res.sensitivity(res.MORE)
	exorSens := res.sensitivity(res.ExOR)
	if exorSens < moreSens {
		t.Errorf("ExOR batch sensitivity %.2fx below MORE's %.2fx; Fig 4-7 shape lost", exorSens, moreSens)
	}
	if !strings.Contains(res.Table(), "K") {
		t.Error("table rendering broken")
	}
}

func TestTable41Microbench(t *testing.T) {
	r := Table41CodingCost(32, 1500, 200)
	// Shape, not absolute times: the independence check must be far
	// cheaper than full coding/decoding (paper: 10 µs vs 270/260 µs), and
	// coding and decoding should be within a small factor of each other.
	// The paper's figures are scalar code, so the check-vs-coding shape is
	// asserted on the portable arm: the check's 31 eliminations (a rank
	// K−1 buffer: a full one rejects without eliminating) are 32-byte
	// vector operations, one SIMD block apiece, but a vector arm codes the
	// 1500 B rows an order of magnitude faster still.
	// Wall-clock ratios are meaningless under the race detector, which
	// instruments the check's Go loop and not the kernels' assembly.
	// The verdict is the best of five calls: the ratio sits near the bound,
	// so one preempted span would otherwise flip it. A call's two spans run
	// back to back and are compared with each other; the fastest coding span
	// of a process and its fastest check span come from different calls.
	prev := gf256.ActiveKernel()
	if err := gf256.SetKernel(gf256.KernelPortable); err != nil {
		t.Fatal(err)
	}
	gain := func(r Table41Result) float64 { return float64(r.SourceCoding) / float64(r.IndependenceCheck) }
	scalar := Table41CodingCost(32, 1500, 200)
	for range 4 {
		if again := Table41CodingCost(32, 1500, 200); gain(again) > gain(scalar) {
			scalar = again
		}
	}
	if err := gf256.SetKernel(prev); err != nil {
		t.Fatal(err)
	}
	if scalar.IndependenceCheck*5 > scalar.SourceCoding && !raceEnabled {
		t.Errorf("independence check (%v) not ≪ source coding (%v)", scalar.IndependenceCheck, scalar.SourceCoding)
	}
	// Coding and decoding are the same O(K·S) work; allow a wide band
	// because this test shares the machine with parallel packages and the
	// paper's own numbers (270 vs 260 µs) only establish same order of
	// magnitude.
	ratio := float64(r.SourceCoding) / float64(r.Decoding)
	if (ratio < 0.05 || ratio > 20) && !raceEnabled {
		t.Errorf("coding (%v) and decoding (%v) should be comparable", r.SourceCoding, r.Decoding)
	}
	// Modern hardware must far exceed the Celeron's 44 Mb/s. Wall-clock
	// throughput is meaningless under the race detector's slowdown.
	if got := r.sustainableMbps(); got < 44 && !raceEnabled {
		t.Errorf("sustainable throughput %.0f Mb/s below the paper's low-end bound", got)
	}
	if !strings.Contains(r.Table(), "independence") {
		t.Error("table rendering broken")
	}
}

func TestHeaderOverheadNumbers(t *testing.T) {
	r := HeaderOverhead(32, 1500)
	if r.HeaderBytes > 70 {
		t.Errorf("header %d B exceeds the 70 B bound", r.HeaderBytes)
	}
	if r.Fraction > 0.05 {
		t.Errorf("header overhead %.1f%% exceeds 5%%", 100*r.Fraction)
	}
}

func TestFig51GapCurve(t *testing.T) {
	pts := Fig51CostGap(8, []float64{0.3, 0.1, 0.03, 0.01})
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Gap < pts[i-1].Gap-1e-9 {
			t.Errorf("gap not growing as p shrinks: %+v", pts)
		}
	}
	if pts[len(pts)-1].Gap < 4 {
		t.Errorf("gap %.2f at p=0.01 too small for k=8", pts[len(pts)-1].Gap)
	}
}

func TestSec57Statistics(t *testing.T) {
	r := Sec57EOTXvsETX(TestbedTopology(), 1)
	if r.Pairs == 0 {
		t.Fatal("no pairs evaluated")
	}
	fracUnaffected := float64(r.Unaffected) / float64(r.Pairs)
	// §5.7: more than 40% of flows unaffected; among affected the median
	// gap is tiny (0.2%).
	if fracUnaffected < 0.2 {
		t.Errorf("only %.0f%% of flows unaffected by EOTX order", 100*fracUnaffected)
	}
	if r.MedianAffectedGapPct > 10 {
		t.Errorf("median affected gap %.1f%% implausibly large", r.MedianAffectedGapPct)
	}
	if !strings.Contains(r.Table(), "unaffected") {
		t.Error("table rendering broken")
	}
}

func TestRandomPairsProperties(t *testing.T) {
	topo := TestbedTopology()
	pairs := RandomPairs(topo, 30, 7)
	if len(pairs) != 30 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	seen := map[Pair]bool{}
	for _, p := range pairs {
		if p.Src == p.Dst {
			t.Fatal("self pair drawn")
		}
		if seen[p] {
			t.Fatal("duplicate pair drawn")
		}
		seen[p] = true
	}
	again := RandomPairs(topo, 30, 7)
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("pair drawing not deterministic")
		}
	}
}

func TestSpatialReusePairSelection(t *testing.T) {
	// A long corridor must contain qualifying pairs; a 5-hop chain shorter
	// than senseRange, whose ends share no link, must not: every run's
	// carrier sense reaches its whole length by geometry.
	corridor := graph.Corridor(14, 360, 15, 28, 1)
	if len(SpatialReusePairs(corridor, 4)) == 0 {
		t.Error("no spatial-reuse pairs found in a 400 m corridor")
	}
	short := graph.Line(6, 0.9, senseRange/6)
	if n := len(SpatialReusePairs(short, 4)); n != 0 {
		t.Errorf("found %d spatial-reuse pairs on a chain inside carrier sense range", n)
	}
	// Spaced at senseRange, every pair 4 or 5 hops apart qualifies: 0-4,
	// 1-5 and 0-5, both ways.
	if n := len(SpatialReusePairs(graph.Line(6, 0.9, senseRange), 4)); n != 6 {
		t.Errorf("found %d spatial-reuse pairs on a chain spaced at senseRange, want 6", n)
	}
}

func TestRunDeterministic(t *testing.T) {
	topo := TestbedTopology()
	opts := quickOpts()
	p := RandomPairs(topo, 1, 3)[0]
	a := Run(topo, MORE, p, opts)
	b := Run(topo, MORE, p, opts)
	if a.Throughput() != b.Throughput() || a.End != b.End {
		t.Fatalf("nondeterministic run: %v vs %v", a, b)
	}
}

func TestParallelFiguresDeterministic(t *testing.T) {
	// The tentpole guarantee of the parallel harness: every figure driver
	// produces byte-identical numbers for any worker count, because per-run
	// seeds derive from the item index, never from scheduling. Run the
	// cheaper drivers serially and at 4 workers and require exact equality.
	topo := TestbedTopology()
	opts := quickOpts()
	opts.FileBytes = 32 * 1500

	serial := opts
	serial.Parallel = 1
	par := opts
	par.Parallel = 4

	a := Fig42UnicastThroughput(topo, 6, serial)
	b := Fig42UnicastThroughput(topo, 6, par)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Fig42 differs between serial and 4 workers:\n%v\nvs\n%v", a.Throughput, b.Throughput)
	}

	fa := Fig45MultiFlow(topo, 2, 2, serial)
	fb := Fig45MultiFlow(topo, 2, 2, par)
	if !reflect.DeepEqual(fa, fb) {
		t.Errorf("Fig45 differs between serial and 4 workers:\n%v\nvs\n%v", fa.Avg, fb.Avg)
	}

	ga := Fig46Autorate(topo, 3, serial)
	gb := Fig46Autorate(topo, 3, par)
	if !reflect.DeepEqual(ga, gb) {
		t.Errorf("Fig46 differs between serial and 4 workers")
	}

	ha := Fig47BatchSize(topo, []int{8, 16}, 3, serial)
	hb := Fig47BatchSize(topo, []int{8, 16}, 3, par)
	if !reflect.DeepEqual(ha, hb) {
		t.Errorf("Fig47 differs between serial and 4 workers")
	}

	sa := Sec57EOTXvsETX(topo, 1)
	sb := Sec57EOTXvsETX(topo, 4)
	if sa != sb {
		t.Errorf("Sec57 differs between serial and 4 workers: %+v vs %+v", sa, sb)
	}
}

func TestParallelFig44Deterministic(t *testing.T) {
	opts := quickOpts()
	opts.FileBytes = 32 * 1500
	serial := opts
	serial.Parallel = 1
	par := opts
	par.Parallel = 4
	a := Fig44SpatialReuse(3, serial)
	b := Fig44SpatialReuse(3, par)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Fig44 differs between serial and 4 workers")
	}
}

func TestMOREFreeListsSharedAcrossWorkers(t *testing.T) {
	// Every MORE node of every simulation in the process draws its coded
	// packets from the one free list of their shape, so simulations running
	// at once hand packets to each other. Four workers must give the
	// results of one, flow by flow. Two shapes are live (K = 32 batches and
	// a K = 16 tail); under -race the detector watches the hand-overs.
	topo := TestbedTopology()
	opts := quickOpts()
	opts.FileBytes = 80 * 1500
	pairs := RandomPairs(topo, 8, 29)
	run := func(workers int) []flow.Result {
		out := make([]flow.Result, len(pairs))
		ForEach(len(pairs), workers, func(i int) { out[i] = Run(topo, MORE, pairs[i], opts) })
		return out
	}
	serial, par := run(1), run(4)
	for i, r := range serial {
		if !r.Completed || !r.Verified {
			t.Fatalf("pair %d: %v", i, r)
		}
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("MORE results differ between 1 and 4 workers:\n%v\nvs\n%v", serial, par)
	}
}

func TestProtocolString(t *testing.T) {
	if MORE.String() != "MORE" || ExOR.String() != "ExOR" ||
		Srcr.String() != "Srcr" || SrcrAutorate.String() != "Srcr-autorate" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(99).String() == "" {
		t.Fatal("unknown protocol should render")
	}
}

func TestEOTXOrderingOption(t *testing.T) {
	// The §5.7 option: running MORE with EOTX forwarder ordering must work
	// and stay within a sane band of the ETX-ordered run.
	topo := TestbedTopology()
	opts := quickOpts()
	p := RandomPairs(topo, 1, 5)[0]
	etx := Run(topo, MORE, p, opts)
	opts.Metric = routing.OrderEOTX
	eotx := Run(topo, MORE, p, opts)
	if !etx.Completed || !eotx.Completed {
		t.Fatalf("runs incomplete: %v / %v", etx, eotx)
	}
	ratio := eotx.Throughput() / etx.Throughput()
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("EOTX/ETX throughput ratio %.2f out of band", ratio)
	}
}

func TestDeadlineRespected(t *testing.T) {
	topo := TestbedTopology()
	opts := quickOpts()
	opts.Deadline = 50 * sim.Millisecond // far too short to finish
	p := RandomPairs(topo, 1, 3)[0]
	r := Run(topo, MORE, p, opts)
	if r.Completed {
		t.Fatal("transfer claimed completion within an impossible deadline")
	}
	if r.End > opts.Deadline {
		t.Fatalf("result end %v beyond deadline", r.End)
	}
}

func TestFig42AcrossSeedsRobust(t *testing.T) {
	// The headline orderings must hold across independently generated
	// topologies, not just the canonical seed.
	opts := quickOpts()
	res := Fig42AcrossSeeds(2, 8, opts)
	if len(res.Seeds) != 2 {
		t.Fatalf("ran %d topologies", len(res.Seeds))
	}
	for i, s := range res.Seeds {
		if res.GainVsSrcr[i] < 20 {
			t.Errorf("topology seed %d: MORE vs Srcr gain %+.0f%% too small", s, res.GainVsSrcr[i])
		}
		if res.GainVsExOR[i] < -15 {
			t.Errorf("topology seed %d: MORE collapsed vs ExOR: %+.0f%%", s, res.GainVsExOR[i])
		}
	}
	if !strings.Contains(res.Table(), "median") {
		t.Error("table rendering broken")
	}
}

// countingSink counts telemetry events by kind.
type countingSink map[telemetry.Kind]int

func (c countingSink) Emit(ev telemetry.Event) { c[ev.Kind]++ }

func TestTraceHookPlumbed(t *testing.T) {
	topo := TestbedTopology()
	opts := quickOpts()
	opts.FileBytes = 32 * 1500
	sink := countingSink{}
	opts.Telemetry = sink
	p := RandomPairs(topo, 1, 3)[0]
	Run(topo, MORE, p, opts)
	if sink[telemetry.KindTx] == 0 {
		t.Fatal("telemetry sink saw no transmissions")
	}
}

func TestSpatialReuseUtilization(t *testing.T) {
	// On a corridor flow with concurrent first/last hops, MORE's medium
	// utilization (air time / wall time) should exceed ExOR's — the direct
	// signature of §4.2.3's spatial reuse.
	opts := quickOpts()
	var topo *graph.Topology
	var pair Pair
	for seed := int64(1); seed < 60; seed++ {
		tp := graph.Corridor(14, 360, 15, 28, seed)
		if prs := SpatialReusePairs(tp, 4); len(prs) > 0 {
			topo, pair = tp, prs[0]
			break
		}
	}
	if topo == nil {
		t.Fatal("no spatial-reuse pair found")
	}
	utilization := func(p Protocol) float64 {
		rs, counters := RunWithCounters(topo, p, []Pair{pair}, opts)
		if !rs[0].Completed {
			t.Fatalf("%v transfer failed", p)
		}
		return counters.Utilization(rs[0].End)
	}
	um := utilization(MORE)
	ue := utilization(ExOR)
	if um <= ue {
		t.Errorf("MORE utilization %.2f should exceed ExOR's %.2f on a reuse path", um, ue)
	}
	if ue > 1.15 {
		t.Errorf("ExOR utilization %.2f implausibly high for a scheduled single flow", ue)
	}
}
