package linkstate

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// chatter is a minimal data layer: it broadcasts a 1500-byte frame every
// 100 ms, the traffic pending LSAs hitch rides on.
type chatter struct {
	node    *sim.Node
	pending int
	TxCount int
}

func (c *chatter) Init(n *sim.Node) {
	c.node = n
	c.tick()
}

func (c *chatter) tick() {
	// Jittered like any real traffic source, or the three nodes transmit in
	// lockstep and collide at the middle of the chain forever.
	d := 100*sim.Millisecond + sim.Time(c.node.Rand().Int63n(int64(50*sim.Millisecond)))
	c.node.After(d, func() {
		c.pending++
		c.node.Wake()
		c.tick()
	})
}

func (c *chatter) Receive(f *sim.Frame) {}

func (c *chatter) Pull() *sim.Frame {
	if c.pending == 0 {
		return nil
	}
	c.pending--
	c.TxCount++
	return &sim.Frame{From: c.node.ID(), To: graph.Broadcast, Bytes: 1500, FlowID: 1}
}

func (c *chatter) Sent(f *sim.Frame, ok bool) {}

// TestPiggybackRidesDataFrames: with steady broadcast data traffic every
// ~125 ms and a ride deadline of AdvertiseInterval/2 (1 s here), the whole
// link-state exchange rides data frames — the network converges with almost
// no dedicated flood transmissions.
func TestPiggybackRidesDataFrames(t *testing.T) {
	topo := graph.Line(3, 0.95, 10)
	s := sim.New(topo, sim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.AdvertiseInterval = 2 * sim.Second
	cfg.Piggyback = true
	agents := make([]*Agent, 3)
	for i := range agents {
		agents[i] = NewAgent(cfg, 3)
		s.Attach(graph.NodeID(i), sim.NewStack(agents[i], &chatter{}))
	}
	s.Run(30 * sim.Second)

	var piggy, flood int64
	for i, a := range agents {
		if a.KnownOrigins() != 3 {
			t.Fatalf("node %d knows %d/3 origins: piggybacked LSAs not delivered", i, a.KnownOrigins())
		}
		piggy += a.PiggyTx
		flood += a.FloodTx
	}
	if piggy == 0 {
		t.Fatal("no LSA ever rode a data frame")
	}
	if flood >= piggy {
		t.Errorf("dedicated floods (%d) should be rare next to rides (%d)", flood, piggy)
	}
}

// TestPiggybackFallsBackToDedicatedFlood: with no data traffic at all, the
// ride deadline expires and the agent floods anyway — piggybacking is an
// optimization, never a liveness hazard.
func TestPiggybackFallsBackToDedicatedFlood(t *testing.T) {
	topo := graph.Line(3, 0.95, 10)
	s := sim.New(topo, sim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.AdvertiseInterval = 2 * sim.Second
	cfg.Piggyback = true
	agents := make([]*Agent, 3)
	for i := range agents {
		agents[i] = NewAgent(cfg, 3)
		s.Attach(graph.NodeID(i), agents[i]) // no data layer: nothing to ride
	}
	s.Run(30 * sim.Second)
	var flood int64
	for i, a := range agents {
		if a.KnownOrigins() != 3 {
			t.Fatalf("node %d knows %d/3 origins without data traffic", i, a.KnownOrigins())
		}
		flood += a.FloodTx
	}
	if flood == 0 {
		t.Fatal("deadline fallback never flooded")
	}
}
