package core

import (
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
)

// TestFixedParameters pins the ACK-redundancy stopping guard and the
// flow-state timeout (§3.3.2).
func TestFixedParameters(t *testing.T) {
	if ackRedundancy != 8 {
		t.Errorf("ackRedundancy = %d, want 8", ackRedundancy)
	}
	if flowTimeout != 5*60*sim.Second {
		t.Errorf("flowTimeout = %v, want 5 minutes", flowTimeout)
	}
}

// TestPartlyFilledSimConfigIsTheDefaultMAC: a sim.Config literal spelling
// out only the per-run fields runs the same MAC as DefaultConfig() — the
// 802.11b timings, retry limit, sense threshold and capture margin are
// constants a literal cannot zero. The same short MORE transfer must produce identical counters
// under both.
func TestPartlyFilledSimConfigIsTheDefaultMAC(t *testing.T) {
	run := func(simCfg sim.Config) sim.Counters {
		topo := graph.LossyChain(5, 15, 30)
		file := flow.NewFile(32*1500, 1500, 3)
		res, s, _ := runMORE(t, topo, smallCfg(16), simCfg, 0, 4, file, 120*sim.Second)
		if !res.Completed || !res.Verified {
			t.Fatalf("transfer failed: %v", res)
		}
		return s.Counters
	}
	def := sim.DefaultConfig()
	def.Seed = 7
	literal := run(sim.Config{Seed: 7, CaptureEnabled: true})
	if want := run(def); !reflect.DeepEqual(literal, want) {
		t.Fatalf("struct-literal config diverged from DefaultConfig():\n literal %+v\n default %+v", literal, want)
	}
	if literal.MACAcks == 0 || literal.Collisions+literal.ChannelLosses == 0 {
		t.Fatalf("transfer too tame to tell two MACs apart: %+v", literal)
	}
}
