package probe

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

func TestMeasureRecoversLinkQuality(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.8)
	topo.SetLink(1, 2, 0.4)
	cfg := DefaultConfig()
	cfg.Window = 40
	est := Measure(topo, cfg, sim.DefaultConfig(), 90*sim.Second)
	if d := est.Prob(0, 1); d < 0.6 || d > 0.95 {
		t.Fatalf("estimated p(0->1) = %v, want ≈0.8", d)
	}
	if d := est.Prob(1, 2); d < 0.2 || d > 0.6 {
		t.Fatalf("estimated p(1->2) = %v, want ≈0.4", d)
	}
	if est.Prob(0, 2) != 0 {
		t.Fatalf("estimated phantom link p(0->2) = %v", est.Prob(0, 2))
	}
	meanErr, maxErr := MatrixError(topo, est, 0.05)
	if meanErr > 0.15 {
		t.Fatalf("mean estimation error %.3f too high", meanErr)
	}
	if maxErr > 0.4 {
		t.Fatalf("max estimation error %.3f too high", maxErr)
	}
}

func TestProbeSizeMismatch(t *testing.T) {
	// With size-dependent delivery, minimal probes would overestimate the
	// delivery of full-size data frames; probes padded to padToBytes
	// measure the loss a 1500 B data frame sees.
	topo := graph.New(2)
	topo.SetLink(0, 1, 0.5)
	simCfg := sim.DefaultConfig()
	simCfg.RefFrameBytes = padToBytes

	cfg := DefaultConfig()
	cfg.Window = 60
	est := Measure(topo, cfg, simCfg, 120*sim.Second)
	if d := est.Prob(0, 1); d < 0.35 || d > 0.65 {
		t.Fatalf("padded estimate %.2f, want ≈0.5", d)
	}
}

func TestProbersShareMediumOnTestbed(t *testing.T) {
	topo, _ := graph.ConnectedTestbed(1)
	cfg := DefaultConfig()
	cfg.Window = 20
	simCfg := sim.DefaultConfig()
	simCfg.SenseRange = 84
	est := Measure(topo, cfg, simCfg, 40*sim.Second)
	meanErr, _ := MatrixError(topo, est, graph.RouteThreshold)
	// Contention between probers adds noise but the estimates must stay
	// usable for route selection.
	if meanErr > 0.2 {
		t.Fatalf("mean estimation error %.3f too high on testbed", meanErr)
	}
}

func TestDeliveryFromUnknownOrigin(t *testing.T) {
	p := NewProber(DefaultConfig(), 8)
	if p.DeliveryFrom(5) != 0 || p.DeliveryFrom(8) != 0 || p.DeliveryFrom(-1) != 0 {
		t.Fatal("unknown origin should estimate 0")
	}
	// Sequence numbers start at 1: a probe numbered 0 leaves a record that
	// estimates nothing. A probe from outside the network leaves none.
	hear(p, 5, 0)
	hear(p, 8, 1)
	if p.heard != 1 || p.DeliveryFrom(5) != 0 || p.DeliveryFrom(8) != 0 {
		t.Fatalf("%d records, estimates %v and %v, want one record and 0, 0", p.heard, p.DeliveryFrom(5), p.DeliveryFrom(8))
	}
}

// TestProbeClockRearmsOneTimer: the probe clock is one event re-armed as it
// fires, so a tick that generates nothing — the node's radio is down —
// allocates nothing.
func TestProbeClockRearmsOneTimer(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 1)
	s := sim.New(topo, sim.DefaultConfig())
	p := NewProber(DefaultConfig(), 2)
	s.Attach(0, p)
	s.FailNode(0)
	tick := p.tick
	if allocs := testing.AllocsPerRun(100, func() { s.Run(s.Now() + interval + jitter) }); allocs != 0 {
		t.Errorf("a probe tick allocates %v objects, want 0", allocs)
	}
	if p.tick != tick || s.Pending() != 1 || p.ProbeTx != 0 {
		t.Fatalf("the probe clock was replaced or duplicated: %d events pending", s.Pending())
	}
}

func TestReleasedControlFrameIsPoisoned(t *testing.T) {
	// Sent poisons the probe it hands back and the next probe reuses it: a
	// reader that kept the frame past Sent finds no origin and no payload,
	// and a receiver handed it records nothing.
	topo := graph.New(2)
	topo.SetLink(0, 1, 1)
	s := sim.New(topo, sim.DefaultConfig())
	p, q := NewProber(DefaultConfig(), 2), NewProber(DefaultConfig(), 2)
	s.Attach(0, p)
	s.Attach(1, q)
	p.pending = 1
	f := p.Pull()
	m := f.Payload.(*probeMsg)
	p.Sent(f, true)
	if want := (probeMsg{Probe: packet.Probe{Origin: -1}}); !reflect.DeepEqual(*m, want) {
		t.Fatalf("released probe %+v, want %+v", *m, want)
	}
	if q.Receive(f); q.heard != 0 {
		t.Fatal("a released frame was counted as a probe")
	}
	// The message itself, handed up in another frame, names origin -1.
	if q.Receive(&sim.Frame{Payload: m}); q.heard != 0 {
		t.Fatal("a released probe left a record")
	}
	p.pending = 1
	if g := p.Pull(); g != f || g.Payload != m || m.Origin != 0 || m.Seq != 2 {
		t.Fatal("the next probe did not reuse the released one")
	}
}
