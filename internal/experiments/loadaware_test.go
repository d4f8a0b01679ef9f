package experiments

import (
	"testing"

	"repro/internal/congest"
)

// TestLoadPenaltyEndToEnd runs the full load-aware pipeline under oracle
// state (the only state that admits it): LoadPenalty > 0 must force load
// export on, surface per-node queue high-water marks, and still complete
// every transfer.
func TestLoadPenaltyEndToEnd(t *testing.T) {
	topo := TestbedTopology()
	opts := DefaultOptions()
	opts.FileBytes = 16 << 10
	opts.CC = congest.DefaultConfig(congest.Cubic)
	opts.LoadPenalty = 2
	pairs := RandomPairs(topo, 2, opts.Seed)
	info := RunDetailed(topo, MORE, pairs, opts)
	for i, r := range info.Results {
		if !r.Completed {
			t.Errorf("flow %d incomplete under load-aware cubic", i)
		}
	}
	if info.Counters.QueueHWM == nil {
		t.Fatal("LoadPenalty did not surface queue high-water marks")
	}
	if len(info.Counters.QueueHWM) != topo.N() {
		t.Fatalf("QueueHWM covers %d of %d nodes", len(info.Counters.QueueHWM), topo.N())
	}
	var any bool
	for _, h := range info.Counters.QueueHWM {
		if h > 0 {
			any = true
		}
	}
	if !any {
		t.Error("every node reports a zero high-water mark")
	}
}

// TestLegacyRunsCarryNoHWM: with load export off, the counters must not
// grow the new field — sealed legacy result documents stay byte-identical.
func TestLegacyRunsCarryNoHWM(t *testing.T) {
	topo := TestbedTopology()
	opts := DefaultOptions()
	opts.FileBytes = 8 << 10
	opts.CC = congest.DefaultConfig(congest.Credit)
	info := RunDetailed(topo, MORE, RandomPairs(topo, 1, opts.Seed), opts)
	if info.Counters.QueueHWM != nil {
		t.Fatalf("legacy run grew QueueHWM: %v", info.Counters.QueueHWM)
	}
}
