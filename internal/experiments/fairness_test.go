package experiments

import (
	"math"
	"testing"

	"repro/internal/congest"
	"repro/internal/flow"
	"repro/internal/sim"
)

func TestJainIndex(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"all-zero", []float64{0, 0, 0}, 0},
		{"single", []float64{5}, 1},
		{"equal", []float64{3, 3, 3, 3}, 1},
		{"one-hot", []float64{10, 0, 0, 0}, 0.25},
		{"two-to-one", []float64{2, 1}, 0.9},
	}
	for _, c := range cases {
		if got := JainIndex(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: JainIndex(%v) = %v, want %v", c.name, c.xs, got, c.want)
		}
	}
	// Invariance under scaling.
	if math.Abs(JainIndex([]float64{1, 2, 3})-JainIndex([]float64{10, 20, 30})) > 1e-12 {
		t.Error("Jain's index is not scale-invariant")
	}
}

// TestJainIndexNonFinite: a stalled flow's NaN/Inf share must count as
// zero, not poison the whole index.
func TestJainIndexNonFinite(t *testing.T) {
	if got := JainIndex([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}); got != 0 {
		t.Errorf("all-non-finite index = %v, want 0", got)
	}
	// One pathological member: the finite members' index, over the full n.
	got := JainIndex([]float64{3, 3, math.NaN(), 3})
	want := (9.0 * 9) / (4 * 27)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("index with NaN member = %v, want %v", got, want)
	}
	if math.IsNaN(JainIndex([]float64{1, math.Inf(1)})) {
		t.Error("Inf member produced a NaN index")
	}
}

// TestBuildFairnessStalledFlow: a flow result whose measured interval
// collapsed (Start == End, zero delivery) must produce finite, zero-valued
// report entries — the sealed result documents cannot encode NaN.
func TestBuildFairnessStalledFlow(t *testing.T) {
	if v := finiteOrZero(math.NaN()); v != 0 {
		t.Errorf("finiteOrZero(NaN) = %v", v)
	}
	if v := finiteOrZero(math.Inf(1)); v != 0 {
		t.Errorf("finiteOrZero(+Inf) = %v", v)
	}
	if v := finiteOrZero(2.5); v != 2.5 {
		t.Errorf("finiteOrZero mangled a finite value: %v", v)
	}

	// End-to-end through the report builder: one healthy flow, one that
	// never moved a packet. Every reported number must be finite.
	results := []flow.Result{
		{Src: 0, Dst: 5, PacketsDelivered: 40, Start: 0, End: 10 * sim.Second, Completed: true},
		{Src: 1, Dst: 6, PacketsDelivered: 0, Start: 0, End: 0},
	}
	counters := sim.Counters{TxByFlow: map[uint32]int64{0: 3, 1: 80, 2: 12}}
	rep := buildFairness(results, counters)
	for i, f := range rep.Flows {
		for name, v := range map[string]float64{"Throughput": f.Throughput, "TxPerPacket": f.TxPerPacket} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("flow %d: non-finite %s %v in report", i, name, v)
			}
		}
	}
	if math.IsNaN(rep.JainThroughput) || math.IsNaN(rep.JainTx) {
		t.Errorf("stalled flow poisoned Jain indexes: %v / %v", rep.JainThroughput, rep.JainTx)
	}
	if rep.JainThroughput != 0.5 {
		// One flow with all the throughput, one with none: (x²)/(2·x²).
		t.Errorf("JainThroughput = %v, want 0.5", rep.JainThroughput)
	}
}

// TestPerFlowCountersSumToRunTotals is the fairness-accounting invariant:
// with flow IDs stamped through the MAC, the per-flow transmission
// counters plus the control bucket must account for every transmission
// the medium saw — under no congestion control and under each policy.
func TestPerFlowCountersSumToRunTotals(t *testing.T) {
	topo := TestbedTopology()
	opts := DefaultOptions()
	opts.FileBytes = 24 << 10
	pairs := RandomPairs(topo, 3, opts.Seed)
	for _, policy := range congest.Policies() {
		opts.CC = congest.DefaultConfig(policy)
		for _, proto := range []Protocol{MORE, ExOR, Srcr} {
			info := RunDetailed(topo, proto, pairs, opts)
			var sum int64
			for fid, n := range info.Counters.TxByFlow {
				if n < 0 {
					t.Errorf("%v/%v: negative TxByFlow[%d] = %d", policy, proto, fid, n)
				}
				sum += n
			}
			if sum != info.Counters.Transmissions {
				t.Errorf("%v/%v: TxByFlow sums to %d, Transmissions = %d",
					policy, proto, sum, info.Counters.Transmissions)
			}
			// Per-flow attribution feeds the results and the report.
			for i, r := range info.Results {
				if r.Transmissions != info.Counters.TxByFlow[uint32(i+1)] {
					t.Errorf("%v/%v flow %d: Result.Transmissions %d != TxByFlow %d",
						policy, proto, i, r.Transmissions, info.Counters.TxByFlow[uint32(i+1)])
				}
				if info.Fairness.Flows[i].Transmissions != r.Transmissions {
					t.Errorf("%v/%v flow %d: fairness report disagrees with result", policy, proto, i)
				}
			}
			if info.Fairness.ControlTx != info.Counters.TxByFlow[0] {
				t.Errorf("%v/%v: ControlTx %d != TxByFlow[0] %d",
					policy, proto, info.Fairness.ControlTx, info.Counters.TxByFlow[0])
			}
			if j := info.Fairness.JainThroughput; j < 0 || j > 1+1e-12 {
				t.Errorf("%v/%v: Jain throughput %v out of range", policy, proto, j)
			}
		}
	}
}

// TestLearnedStateControlAttribution checks that measurement-plane frames
// (probes, LSAs) land in the control bucket, never on a flow.
func TestLearnedStateControlAttribution(t *testing.T) {
	topo := TestbedTopology()
	opts := DefaultOptions()
	opts.FileBytes = 16 << 10
	opts.State = StateLearned
	info := RunDetailed(topo, MORE, []Pair{{Src: 3, Dst: 17}}, opts)
	if info.Counters.TxByFlow[0] < info.ProbeTx+info.FloodTx {
		t.Errorf("control bucket %d smaller than probes+floods %d",
			info.Counters.TxByFlow[0], info.ProbeTx+info.FloodTx)
	}
	var sum int64
	for _, n := range info.Counters.TxByFlow {
		sum += n
	}
	if sum != info.Counters.Transmissions {
		t.Errorf("TxByFlow sums to %d, Transmissions = %d", sum, info.Counters.Transmissions)
	}
}

// TestCreditPolicyBeatsBaselineOnTestbed pins the headline mitigation
// result at small scale: on the paper testbed under multi-flow load, the
// credit policy must deliver the same bytes with measurably fewer
// transmissions than the uncontrolled baseline — grants included.
func TestCreditPolicyBeatsBaselineOnTestbed(t *testing.T) {
	topo := TestbedTopology()
	opts := DefaultOptions()
	opts.FileBytes = 32 << 10
	pairs := RandomPairs(topo, 3, opts.Seed)

	base := RunDetailed(topo, MORE, pairs, opts)
	opts.CC = congest.DefaultConfig(congest.Credit)
	credit := RunDetailed(topo, MORE, pairs, opts)

	for i, r := range credit.Results {
		if !r.Completed {
			t.Fatalf("credit flow %d incomplete", i)
		}
	}
	for i, r := range base.Results {
		if !r.Completed {
			t.Fatalf("baseline flow %d incomplete", i)
		}
	}
	if credit.Counters.Transmissions >= base.Counters.Transmissions {
		t.Errorf("credit policy did not reduce transmissions: %d vs %d",
			credit.Counters.Transmissions, base.Counters.Transmissions)
	}
	if credit.CCStats.GrantTx == 0 {
		t.Error("credit run sent no grants")
	}
}
