package linkstate

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

// agingConfig is a fast-reacting liveness + aging configuration for the
// tests: 2 s advertisements keep live origins refreshed well inside the
// 10 s MaxAge, and 3 s of probe silence declares a neighbor dead.
func agingConfig() Config {
	cfg := DefaultConfig()
	cfg.AdvertiseInterval = 2 * sim.Second
	cfg.MaxAge = 10 * sim.Second
	cfg.Probe.DeadInterval = 3 * sim.Second
	return cfg
}

// knows reports whether the agent currently holds an LSA from origin: false
// once aging has purged a dead origin, true again after its reborn flood
// lands.
func (a *Agent) knows(origin graph.NodeID) bool { return a.entry(origin) != nil }

// entry returns the LSA held for origin, or nil: none heard, aged out, or
// origin outside the network.
func (a *Agent) entry(origin graph.NodeID) *packet.LSA {
	if uint(origin) >= uint(len(a.cold)) {
		return nil
	}
	return a.cold[origin].lsa
}

func agingSim(t *testing.T, n int) (*sim.Simulator, *graph.Topology, []*Agent) {
	t.Helper()
	topo := graph.Line(n, 0.95, 10)
	s := sim.New(topo, sim.DefaultConfig())
	agents := make([]*Agent, n)
	for i := range agents {
		agents[i] = NewAgent(agingConfig(), n)
		s.Attach(graph.NodeID(i), agents[i])
	}
	return s, topo, agents
}

// TestMaxAgeExpiresDeadOriginAndRelearnsRebirth is the crash/recover story
// end to end: a converged chain loses its far end, the survivors age the
// stale LSA out of their databases, and when the node is reborn its
// re-flood (whose sequence numbers kept advancing while it was dead) is
// accepted and the origin re-learned everywhere.
func TestMaxAgeExpiresDeadOriginAndRelearnsRebirth(t *testing.T) {
	s, topo, agents := agingSim(t, 3)
	s.Run(20 * sim.Second)
	for i, a := range agents {
		if a.KnownOrigins() != 3 {
			t.Fatalf("node %d knows %d/3 origins before the crash", i, a.KnownOrigins())
		}
	}

	topo.Isolate(2)
	s.FailNode(2)
	s.Run(50 * sim.Second) // 30 s of silence: well past the 10 s MaxAge
	if agents[0].knows(2) || agents[1].knows(2) {
		t.Errorf("stale LSA outlived MaxAge: node0=%v node1=%v", agents[0].knows(2), agents[1].knows(2))
	}
	if !agents[2].knows(2) {
		t.Error("a node's own database entry must never expire")
	}
	if agents[0].ExpiredLSAs == 0 && agents[1].ExpiredLSAs == 0 {
		t.Error("no expiry was counted on either survivor")
	}
	// Live origins must not be collateral damage: 0 and 1 still refresh
	// each other inside MaxAge.
	if !agents[0].knows(1) || !agents[1].knows(0) {
		t.Error("aging purged a live origin")
	}

	topo.Restore(2)
	s.RecoverNode(2)
	s.Run(80 * sim.Second)
	if !agents[0].knows(2) || !agents[1].knows(2) {
		t.Error("reborn origin was not re-learned after recovery")
	}
}

// TestFlapShorterThanMaxAgeKeepsOrigin: an outage shorter than MaxAge must
// not purge the flapping neighbor — its refresh resumes before the age
// horizon passes, so the database rides through the blip.
func TestFlapShorterThanMaxAgeKeepsOrigin(t *testing.T) {
	s, topo, agents := agingSim(t, 3)
	s.Run(20 * sim.Second)

	topo.Isolate(2)
	s.FailNode(2)
	s.Run(24 * sim.Second) // a 4 s blip: well inside the 10 s MaxAge
	if !agents[0].knows(2) || !agents[1].knows(2) {
		t.Fatal("origin purged before MaxAge elapsed")
	}
	topo.Restore(2)
	s.RecoverNode(2)
	s.Run(44 * sim.Second)
	if !agents[0].knows(2) || !agents[1].knows(2) {
		t.Error("flapping origin lost after it came back")
	}
}

// TestExpiryKeepsAntiReplayState: after a purge, a replayed stale LSA
// (sequence at or below the last accepted one) must still be rejected —
// expiry drops the database entry, not the replay horizon — while a newer
// sequence is accepted.
func TestExpiryKeepsAntiReplayState(t *testing.T) {
	s, topo, agents := agingSim(t, 3)
	s.Run(20 * sim.Second)
	topo.Isolate(2)
	s.FailNode(2)
	s.Run(50 * sim.Second)
	if agents[0].knows(2) {
		t.Fatal("stale LSA not expired")
	}
	last := agents[0].seqOf(2)
	if agents[0].accept(&packet.LSA{Origin: 2, Seq: last}) {
		t.Error("replayed stale LSA accepted after expiry")
	}
	if !agents[0].accept(&packet.LSA{Origin: 2, Seq: last + 1}) {
		t.Error("fresh re-flood rejected after expiry")
	}
}

// TestDeadIntervalZeroKeepsLegacyBehavior: with liveness and aging off
// (the default config), a dead neighbor's LSA lives forever — the original
// behavior every pre-churn golden pins.
func TestDeadIntervalZeroKeepsLegacyBehavior(t *testing.T) {
	topo := graph.Line(3, 0.95, 10)
	s := sim.New(topo, sim.DefaultConfig())
	agents := make([]*Agent, 3)
	for i := range agents {
		agents[i] = NewAgent(DefaultConfig(), 3)
		s.Attach(graph.NodeID(i), agents[i])
	}
	s.Run(20 * sim.Second)
	topo.Isolate(2)
	s.FailNode(2)
	s.Run(80 * sim.Second)
	if !agents[0].knows(2) {
		t.Error("default config expired an LSA; aging must be opt-in")
	}
}
