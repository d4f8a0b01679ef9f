package probe

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

// hear drives Receive standalone with a probe frame from origin.
func hear(p *Prober, origin graph.NodeID, seq uint32) {
	p.Receive(&sim.Frame{
		From:    origin,
		To:      graph.Broadcast,
		Payload: &probeMsg{Probe: packet.Probe{Origin: origin, Seq: seq, Window: uint16(p.cfg.Window)}},
	})
}

func TestDuplicateProbeDoesNotInflateDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 10
	p := NewProber(cfg, 8)
	// All 10 window slots heard, one of them replayed: a duplicate-counting
	// estimator reports 11/10 here.
	for seq := uint32(1); seq <= 10; seq++ {
		hear(p, 3, seq)
	}
	hear(p, 3, 7)
	if d := p.DeliveryFrom(3); d != 1.0 {
		t.Fatalf("delivery with replayed probe = %v, want exactly 1.0", d)
	}
	// A lossier window with a replay inside it must count the seq once.
	q := NewProber(cfg, 8)
	for _, seq := range []uint32{1, 2, 5, 5, 9} {
		hear(q, 3, seq)
	}
	hear(q, 3, 10)
	if d := q.DeliveryFrom(3); d != 0.5 {
		t.Fatalf("delivery with duplicated seq = %v, want 0.5 (5 distinct of 10)", d)
	}
}

func TestDeliveryNeverExceedsOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 5
	p := NewProber(cfg, 8)
	for seq := uint32(1); seq <= 8; seq++ {
		hear(p, 1, seq)
		hear(p, 1, seq) // every probe replayed
	}
	if d := p.DeliveryFrom(1); d > 1.0 {
		t.Fatalf("delivery = %v, must never exceed 1.0", d)
	}
}

func TestReorderedProbeDoesNotRegressTrimHorizon(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 10
	p := NewProber(cfg, 8)
	for seq := uint32(11); seq <= 30; seq++ {
		hear(p, 2, seq)
	}
	// A late, reordered probe arrives. Trimming against the arriving seq
	// (horizon 15-10=5) instead of lastSeq (30-10=20) would re-admit it and
	// keep every stale entry alive.
	hear(p, 2, 15)
	o := p.record(2)
	horizon := o.last - uint32(cfg.Window)
	for _, s := range o.window {
		if s <= horizon {
			t.Fatalf("stale seq %d survived the trim (horizon %d)", s, horizon)
		}
	}
	if n := len(o.window); n > cfg.Window {
		t.Fatalf("window holds %d entries, cap is %d", n, cfg.Window)
	}
	if c := cap(o.window); c != cfg.Window+1 {
		t.Fatalf("window capacity %d after 21 probes, want the presized %d", c, cfg.Window+1)
	}
	if d := p.DeliveryFrom(2); d != 1.0 {
		t.Fatalf("delivery after reordered arrival = %v, want 1.0", d)
	}
}

func TestDeliveryFromStandaloneWithDeadInterval(t *testing.T) {
	// A prober driven without Init has no node and therefore no clock; with
	// DeadInterval set this used to dereference nil in DeliveryFrom.
	cfg := DefaultConfig()
	cfg.Window = 10
	cfg.DeadInterval = 5 * sim.Second
	p := NewProber(cfg, 8)
	for seq := uint32(1); seq <= 10; seq++ {
		hear(p, 4, seq)
	}
	if d := p.DeliveryFrom(4); d != 1.0 {
		t.Fatalf("standalone delivery with DeadInterval = %v, want 1.0", d)
	}
	if d := p.DeliveryFrom(9); d != 0 {
		t.Fatalf("unknown origin = %v, want 0", d)
	}
}
