package experiments

import (
	"testing"

	"repro/internal/sim"
)

// TestOracleStateByteIdentical locks the -state oracle path to the exact
// pre-measurement-plane behavior: the control-plane refactor (per-node
// RoutingState providers, protocol stacking, plan refresh hooks) must not
// move a single RNG draw when the oracle is selected. The golden numbers
// were captured from the seed implementation before RoutingState existed;
// any drift here is a regression, not a re-baseline.
func TestOracleStateByteIdentical(t *testing.T) {
	golden := []struct {
		proto         Protocol
		tx, acks      int64
		deliveries    int64
		channelLosses int64
		airTime       sim.Time
		end           sim.Time
	}{
		{MORE, 213, 5, 1093, 1153, 508064608, 545248427},
		{ExOR, 267, 10, 1853, 1068, 455434051, 674038382},
		{Srcr, 390, 275, 4732, 2051, 943021803, 1015042349},
	}
	for _, g := range golden {
		opts := DefaultOptions()
		opts.FileBytes = 64 << 10
		info := RunDetailed(TestbedTopology(), g.proto, []Pair{{Src: 3, Dst: 17}}, opts)
		c := info.Counters
		r := info.Results[0]
		if c.Transmissions != g.tx || c.MACAcks != g.acks || c.Deliveries != g.deliveries ||
			c.ChannelLosses != g.channelLosses || c.AirTime != g.airTime || r.End != g.end {
			t.Errorf("%v oracle run drifted from seed behavior:\n got tx=%d acks=%d deliveries=%d chloss=%d airtime=%d end=%d\nwant tx=%d acks=%d deliveries=%d chloss=%d airtime=%d end=%d",
				g.proto, c.Transmissions, c.MACAcks, c.Deliveries, c.ChannelLosses, int64(c.AirTime), int64(r.End),
				g.tx, g.acks, g.deliveries, g.channelLosses, int64(g.airTime), int64(g.end))
		}
		if !r.Completed || !r.Verified {
			t.Errorf("%v oracle run: completed=%v verified=%v", g.proto, r.Completed, r.Verified)
		}
		if info.Convergence != 0 || info.ProbeTx != 0 || info.FloodTx != 0 {
			t.Errorf("%v oracle run leaked measurement-plane state: conv=%v probes=%d floods=%d",
				g.proto, info.Convergence, info.ProbeTx, info.FloodTx)
		}
	}
}

// TestLearnedRunDeterministic locks the learned path's determinism: two
// identical runs must agree bit for bit (the measurement plane shares the
// simulator RNG, so this guards the whole stack's determinism).
func TestLearnedRunDeterministic(t *testing.T) {
	run := func() RunInfo {
		opts := DefaultOptions()
		opts.FileBytes = 32 << 10
		opts.State = StateLearned
		return RunDetailed(TestbedTopology(), MORE, []Pair{{Src: 3, Dst: 17}}, opts)
	}
	a, b := run(), run()
	if a.Counters.Transmissions != b.Counters.Transmissions ||
		a.Counters.AirTime != b.Counters.AirTime ||
		a.Convergence != b.Convergence ||
		a.ProbeTx != b.ProbeTx || a.FloodTx != b.FloodTx ||
		a.Results[0].End != b.Results[0].End {
		t.Fatalf("learned runs diverged: %+v vs %+v", a.Counters, b.Counters)
	}
}

// TestLearnedColdStart disables the warmup: flows must still launch (the
// runner retries until the learned view can route), the measurement plane
// must converge under load, and the transfer must complete.
func TestLearnedColdStart(t *testing.T) {
	opts := DefaultOptions()
	opts.FileBytes = 32 << 10
	opts.State = StateLearned
	opts.Warmup = -1
	info := RunDetailed(TestbedTopology(), MORE, []Pair{{Src: 3, Dst: 17}}, opts)
	r := info.Results[0]
	if !r.Completed || !r.Verified {
		t.Fatalf("cold-start transfer failed: completed=%v verified=%v", r.Completed, r.Verified)
	}
	if info.Convergence <= 0 {
		t.Errorf("convergence under load not recorded: %v", info.Convergence)
	}
}

func TestParseStateMode(t *testing.T) {
	if m, err := parseStateMode("oracle"); err != nil || m != StateOracle {
		t.Fatalf("oracle: %v %v", m, err)
	}
	if m, err := parseStateMode("learned"); err != nil || m != StateLearned {
		t.Fatalf("learned: %v %v", m, err)
	}
	if _, err := parseStateMode("psychic"); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}
