package congest

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

// runChainMORE transfers one small file over a lossy chain with the given
// batch size and congestion config on every node, returning the
// destination's result, the time the source saw the final ACK (0 if it never
// did), the medium counters, and the aggregated layer stats.
func runChainMORE(t *testing.T, batch int, cfg Config) (flow.Result, sim.Time, sim.Counters, Stats) {
	t.Helper()
	topo := graph.LossyChain(5, 20, 30)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: graph.RouteThreshold, AckAware: true})
	ccfg := core.DefaultConfig()
	ccfg.BatchSize = batch
	ccfg.PayloadSize = 256
	nodes := make([]*core.Node, topo.N())
	layers := make([]*Layer, topo.N())
	for i := range nodes {
		nodes[i] = core.NewNode(ccfg, oracle)
		layers[i] = New(cfg, nodes[i])
		s.Attach(graph.NodeID(i), layers[i])
	}
	file := flow.NewFile(batch*256, 256, 1) // exactly one batch of rank K
	var doneAt sim.Time
	nodes[4].ExpectFlow(1, file, nil)
	if err := nodes[0].StartFlow(1, 4, file, func() { doneAt = s.Now() }); err != nil {
		t.Fatal(err)
	}
	s.Run(120 * sim.Second)
	var st Stats
	for _, l := range layers {
		st.Add(l.Stats)
	}
	return nodes[4].Result(1), doneAt, s.Counters, st
}

// TestCreditBypassesSubFloorBatches is the sub-batch workload fix: a
// single-batch transfer at K = 11 (below the creditMinK floor of 16) must
// not engage the grant/probe machinery at all — the run is byte-identical
// to the plain bounded queue (Tail policy), because in a batch that small
// the whole transfer is endgame and the machinery's own frames invert
// credit's large-scale win.
func TestCreditBypassesSubFloorBatches(t *testing.T) {
	const k = 11
	creditRes, creditDone, creditCtr, creditStats := runChainMORE(t, k, Config{Policy: Credit})
	tailRes, tailDone, tailCtr, tailStats := runChainMORE(t, k, Config{Policy: Tail})

	if creditStats.GrantTx != 0 || creditStats.ProbeSends != 0 || creditStats.GateSkips != 0 {
		t.Errorf("credit machinery engaged below the K floor: grants=%d probes=%d gateSkips=%d",
			creditStats.GrantTx, creditStats.ProbeSends, creditStats.GateSkips)
	}
	if !creditRes.Completed || creditDone == 0 {
		t.Fatalf("K=%d credit transfer incomplete: %+v", k, creditRes)
	}
	if !reflect.DeepEqual(creditCtr, tailCtr) {
		t.Errorf("sub-floor credit run diverged from tail:\ncredit: %+v\ntail:   %+v", creditCtr, tailCtr)
	}
	if creditRes != tailRes || creditDone != tailDone {
		t.Errorf("sub-floor credit result diverged from tail:\ncredit: %+v, done at %v\ntail:   %+v, done at %v",
			creditRes, creditDone, tailRes, tailDone)
	}
	if creditStats.Enqueued != tailStats.Enqueued {
		t.Errorf("queue behavior diverged: credit enqueued %d, tail %d", creditStats.Enqueued, tailStats.Enqueued)
	}
}

// TestCreditEngagesAtAndAboveFloor pins the other side of the floor: at
// K = 32 (and at the floor itself) grants still flow.
func TestCreditEngagesAtAndAboveFloor(t *testing.T) {
	for _, k := range []int{16, 32} {
		res, doneAt, _, st := runChainMORE(t, k, Config{Policy: Credit})
		if !res.Completed || doneAt == 0 {
			t.Fatalf("K=%d credit transfer incomplete: %+v", k, res)
		}
		if st.GrantTx == 0 {
			t.Errorf("K=%d: no grants above the creditMinK floor", k)
		}
	}
}

// TestNeedAdvertiseMaxScalesWithK checks the endgame-countdown threshold
// shrinks proportionally with the batch rank.
func TestNeedAdvertiseMaxScalesWithK(t *testing.T) {
	for _, c := range []struct{ k, want int }{
		{32, 8}, // the K=32 tuning point: unchanged
		{24, 6},
		{16, 4},
		{4, 1},  // floor: never below one
		{0, 8},  // unknown rank: the K=32 value
		{64, 8}, // large K: capped at the K=32 value
	} {
		if got := endgameThreshold(c.k); got != c.want {
			t.Errorf("endgameThreshold(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}
