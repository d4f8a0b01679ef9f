package linkstate

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestFixedParameters pins the dissemination constants no run varies.
func TestFixedParameters(t *testing.T) {
	if floodJitter != 200*sim.Millisecond || minProb != 0.05 || defaultAdvertiseInterval != 5*sim.Second {
		t.Fatalf("linkstate constants = %v / %v / %v, want 200ms / 0.05 / 5s",
			floodJitter, minProb, defaultAdvertiseInterval)
	}
}

// TestPartlyFilledConfigKeepsItsFields: a Config that sets some fields and
// leaves AdvertiseInterval zero gets the 5 s interval and the default
// prober, and keeps everything it did set — NewAgent used to replace the
// whole struct with DefaultConfig() and run undamped and unscoped.
func TestPartlyFilledConfigKeepsItsFields(t *testing.T) {
	a := NewAgent(Config{TriggerDelta: 0.2, ScopeRings: []int{2, 8}}, 4)
	if a.cfg.TriggerDelta != 0.2 || !reflect.DeepEqual(a.cfg.ScopeRings, []int{2, 8}) {
		t.Errorf("set fields lost: TriggerDelta %v, ScopeRings %v", a.cfg.TriggerDelta, a.cfg.ScopeRings)
	}
	if a.cfg.AdvertiseInterval != 5*sim.Second {
		t.Errorf("AdvertiseInterval = %v, want the 5 s default", a.cfg.AdvertiseInterval)
	}
	// The derived defaults follow from the fields as written.
	if a.cfg.MaxQuiet != 30*sim.Second || a.cfg.SummaryInterval != 40*sim.Second {
		t.Errorf("MaxQuiet %v / SummaryInterval %v, want 6x and 8x the advertise interval",
			a.cfg.MaxQuiet, a.cfg.SummaryInterval)
	}
	if got := NewAgent(Config{Probe: probe.Config{Window: 25}}, 4).cfg.Probe.Window; got != 25 {
		t.Errorf("Probe.Window = %d, want the 25 the caller set", got)
	}

	// The default prober: its zero Probe block resolves to
	// probe.DefaultConfig(), so the probes it airs are padded to data size.
	topo := graph.New(4)
	topo.SetLink(0, 1, 1)
	s := sim.New(topo, sim.DefaultConfig())
	var sizes probeSizes
	s.Telem = &sizes
	s.Attach(0, a)
	for i := 1; i < 4; i++ {
		s.Attach(graph.NodeID(i), NewAgent(DefaultConfig(), 4))
	}
	s.Run(3 * sim.Second) // two or three probes, no advertisement yet
	if len(sizes) == 0 {
		t.Fatal("no probe went out in 3 s")
	}
	for _, b := range sizes {
		if b != int32(probe.DefaultConfig().PadToBytes) {
			t.Errorf("probe of %d B on the air, want the default %d B padding", b, probe.DefaultConfig().PadToBytes)
		}
	}
}

// probeSizes records the on-air size of every transmission.
type probeSizes []int32

func (p *probeSizes) Emit(ev telemetry.Event) {
	if ev.Kind == telemetry.KindTx {
		*p = append(*p, ev.Bytes)
	}
}
