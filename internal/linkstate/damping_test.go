package linkstate

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// floodStats runs a standalone measurement plane for the duration and
// returns total LSA transmissions, suppressed advertise ticks, and the
// total origins known across all agents (coverage).
func floodStats(t *testing.T, cfg Config, duration sim.Time) (flood, suppressed int64, known int) {
	t.Helper()
	topo := graph.Testbed(1)
	agents := Run(topo, cfg, sim.DefaultConfig(), duration)
	for _, a := range agents {
		flood += a.FloodTx
		suppressed += a.SuppressedAdv
		known += a.KnownOrigins()
	}
	return flood, suppressed, known
}

// TestDampingSavesFloodsAtEqualCoverage quantifies the point of the
// feature: with triggered updates + hold-down on, the network floods
// dramatically less than the undamped baseline while every node learns at
// least as many origins.
func TestDampingSavesFloodsAtEqualCoverage(t *testing.T) {
	const duration = 60 * sim.Second

	base, baseSupp, baseKnown := floodStats(t, DefaultConfig(), duration)
	if baseSupp != 0 {
		t.Fatalf("undamped plane suppressed %d advertisements", baseSupp)
	}

	// The trigger must exceed the probe estimator's granularity (a
	// 10-probe window moves in 0.1 steps, so 0.1 would re-trigger on every
	// single-probe jitter); 0.2 requires a two-step move.
	damped := DefaultConfig()
	damped.TriggerDelta = 0.2
	flood, suppressed, known := floodStats(t, damped, duration)
	// Coverage may dip slightly: a node whose LSA a distant listener lost
	// now waits for a trigger or the maxQuiet refresh instead of the next
	// periodic flood. Bound the dip at 5%.
	if known*100 < baseKnown*95 {
		t.Errorf("damping lost coverage: %d origins known vs %d undamped", known, baseKnown)
	}
	if suppressed == 0 {
		t.Fatal("damping never suppressed an advertisement")
	}
	// The run starts cold (estimates move a lot), so the saving shows up
	// after convergence; over 60 s it must still be substantial.
	if flood >= base*3/4 {
		t.Errorf("damping saved too little: %d floods vs %d undamped", flood, base)
	}
}

// TestDampingMaxQuietRefreshes checks the hold-down bound: even a fully
// quiet node re-floods once maxQuiet (6×AdvertiseInterval, 30 s at the
// default) elapses, so late joiners are not stranded with stale state
// forever — and not before.
func TestDampingMaxQuietRefreshes(t *testing.T) {
	topo := graph.Line(2, 1.0, 10) // perfect links: settled estimates never move
	cfg := DefaultConfig()
	cfg.TriggerDelta = 0.2

	s := sim.New(topo, sim.DefaultConfig())
	agents := []*Agent{NewAgent(cfg, 2), NewAgent(cfg, 2)}
	for i := range agents {
		s.Attach(graph.NodeID(i), agents[i])
	}
	a := agents[0]
	if a.maxQuiet != 30*sim.Second {
		t.Fatalf("maxQuiet = %v, want 6×AdvertiseInterval = 30 s", a.maxQuiet)
	}
	// Let it converge and go quiet, then watch one quiet period.
	s.Run(60 * sim.Second)
	last, seq := a.lastAdvAt, agents[1].seqOf(0)
	if a.SuppressedAdv == 0 {
		t.Fatal("damping never engaged: the test exercises nothing")
	}
	s.Run(last + a.maxQuiet - sim.Millisecond)
	if a.lastAdvAt != last {
		t.Fatalf("quiet node flooded at %v, before maxQuiet had passed since %v", a.lastAdvAt, last)
	}
	s.Run(last + a.maxQuiet + cfg.AdvertiseInterval + 2*floodJitter)
	if a.lastAdvAt == last {
		t.Error("no refresh flood within the maxQuiet window")
	}
	if agents[1].seqOf(0) == seq {
		t.Error("peer never heard the quiet period's refresh")
	}
}

// TestDampingTriggersOnChange checks the trigger half: a quiet converged
// network that suddenly degrades floods fresh LSAs without waiting for
// maxQuiet. Over a window half as long, its nodes advertise more than those
// of an identical network left alone, whose only advertisements are
// maxQuiet refreshes: a clique of perfect links, where every node senses
// every other, gives the estimates no jitter to trigger on.
func TestDampingTriggersOnChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TriggerDelta = 0.2
	advertised := func(degrade bool) uint32 {
		topo := clique(4)
		s := sim.New(topo, sim.DefaultConfig())
		agents := make([]*Agent, topo.N())
		for i := range agents {
			agents[i] = NewAgent(cfg, topo.N())
			s.Attach(graph.NodeID(i), agents[i])
		}
		s.Run(60 * sim.Second)
		var n uint32
		for _, a := range agents {
			n -= a.seq
		}
		// Degrade every link: delivery ratios crash, estimates move past the
		// trigger, and the plane must re-flood.
		if degrade {
			topo.Degrade(0.5)
		}
		s.Run(60*sim.Second + agents[0].maxQuiet/2)
		for _, a := range agents {
			n += a.seq
		}
		return n
	}
	changed, quiet := advertised(true), advertised(false)
	t.Logf("%d advertisements after the change, %d left alone", changed, quiet)
	if changed <= quiet {
		t.Errorf("no triggered flood after topology change: %d advertisements, %d left alone", changed, quiet)
	}
}

// clique returns n nodes joined by perfect links: every node senses every
// other, so probes do not collide and settled estimates never move.
func clique(n int) *graph.Topology {
	topo := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			topo.SetLink(graph.NodeID(i), graph.NodeID(j), 1)
		}
	}
	return topo
}
