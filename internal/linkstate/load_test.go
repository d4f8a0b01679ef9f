package linkstate

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestLoadRidesLSAs: a node whose sampler reports load must have that byte
// heard across the network, and a node with no sampler (or zero load) must
// read back as unloaded everywhere.
func TestLoadRidesLSAs(t *testing.T) {
	topo := graph.Line(4, 0.9, 10)
	cfg := DefaultConfig()
	s := sim.New(topo, sim.DefaultConfig())
	agents := make([]*Agent, topo.N())
	for i := range agents {
		agents[i] = NewAgent(cfg, topo.N())
		s.Attach(graph.NodeID(i), agents[i])
	}
	agents[1].SetLoadFunc(func() uint8 { return 200 })
	s.Run(60 * sim.Second)
	for i, a := range agents {
		if got := a.LoadOf(1); got != 200 {
			t.Errorf("node %d heard load %d from node 1, want 200", i, got)
		}
		if got := a.LoadOf(2); got != 0 {
			t.Errorf("node %d heard load %d from samplerless node 2", i, got)
		}
	}

	// The learned cost model prices exactly what was heard.
	lc := &LoadCost{Agent: agents[0], Weight: 2}
	if got, want := lc.NodePenalty(1), 2*200.0/255; got != want {
		t.Errorf("NodePenalty(loaded) = %v, want %v", got, want)
	}
	if got := lc.NodePenalty(2); got != 0 {
		t.Errorf("NodePenalty(unloaded) = %v", got)
	}
	if got := (&LoadCost{Agent: agents[0], Weight: 0}).NodePenalty(1); got != 0 {
		t.Errorf("zero-weight model charged %v", got)
	}
}

// TestLoadSwingDefeatsDamping: a converged, quiet network whose link
// estimates never move (a clique of perfect links) must still re-flood when
// a node's load byte swings by the trigger delta — otherwise stale load
// would steer routing long after the hotspot cooled.
func TestLoadSwingDefeatsDamping(t *testing.T) {
	topo := clique(6)
	cfg := DefaultConfig()
	cfg.TriggerDelta = 0.2

	s := sim.New(topo, sim.DefaultConfig())
	agents := make([]*Agent, topo.N())
	load := uint8(0)
	for i := range agents {
		agents[i] = NewAgent(cfg, topo.N())
		s.Attach(graph.NodeID(i), agents[i])
	}
	agents[0].SetLoadFunc(func() uint8 { return load })
	s.Run(60 * sim.Second)
	// Swing right after node 0's next flood, so its maxQuiet refresh (30 s)
	// is not due before the horizon: only a trigger can carry the new load.
	last := agents[0].lastAdvAt
	s.RunWhile(120*sim.Second, func() bool { return agents[0].lastAdvAt == last })
	if agents[0].SuppressedAdv == 0 {
		t.Fatal("damping never engaged: the test exercises nothing")
	}
	suppressed, heardBefore := agents[0].SuppressedAdv, agents[5].LoadOf(0)
	// A quiet tick first, then the swing well past loadTriggerDelta: the
	// next advertise tick must flood despite unchanged link estimates.
	s.Run(agents[0].lastAdvAt + cfg.AdvertiseInterval + 2*floodJitter)
	if agents[0].SuppressedAdv == suppressed {
		t.Fatal("the tick after a flood was not damped: the swing would prove nothing")
	}
	load = 220
	s.Run(s.Now() + cfg.AdvertiseInterval + 10*floodJitter)
	if got := agents[5].LoadOf(0); got == heardBefore || got != 220 {
		t.Errorf("load swing suppressed by damping: remote reads %d, had %d", got, heardBefore)
	}

	// A sub-delta wobble stays damped: loadMoved is the only new trigger.
	if loadMoved(100, 100+loadTriggerDelta-1) {
		t.Error("sub-delta load wobble counted as news")
	}
	if !loadMoved(100, 100+loadTriggerDelta) {
		t.Error("full-delta load swing not counted as news")
	}
	if !loadMoved(200, 50) {
		t.Error("downward swing not counted as news")
	}
}
