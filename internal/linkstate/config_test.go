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
	if floodJitter != 200*sim.Millisecond || minProb != 0.05 || defaultAdvertiseInterval != 5*sim.Second ||
		maxQuietIntervals != 6 {
		t.Fatalf("linkstate constants = %v / %v / %v / %d, want 200ms / 0.05 / 5s / 6",
			floodJitter, minProb, defaultAdvertiseInterval, maxQuietIntervals)
	}
}

// TestDerivedIntervals: NewAgent derives the damping bound and the ride
// deadline from AdvertiseInterval — 6× when damping, capped at MaxAge/2,
// and ½× when piggybacking — and leaves each zero when its feature is off.
func TestDerivedIntervals(t *testing.T) {
	for _, c := range []struct {
		name                     string
		cfg                      Config
		maxQuiet, piggybackDelay sim.Time
	}{
		{"default", DefaultConfig(), 0, 0},
		{"damped", Config{TriggerDelta: 0.2}, 30 * sim.Second, 0},
		{"damped 2s", Config{AdvertiseInterval: 2 * sim.Second, TriggerDelta: 0.2}, 12 * sim.Second, 0},
		{"damped, aged", Config{TriggerDelta: 0.2, MaxAge: 20 * sim.Second}, 10 * sim.Second, 0},
		{"damped, aged long", Config{TriggerDelta: 0.2, MaxAge: 31 * sim.Second}, 30 * sim.Second, 0},
		{"piggyback", Config{Piggyback: true}, 0, 2500 * sim.Millisecond},
		{"piggyback 2s", Config{AdvertiseInterval: 2 * sim.Second, Piggyback: true}, 0, sim.Second},
	} {
		a := NewAgent(c.cfg, 4)
		if a.maxQuiet != c.maxQuiet || a.piggybackDelay != c.piggybackDelay {
			t.Errorf("%s: maxQuiet %v / piggybackDelay %v, want %v / %v",
				c.name, a.maxQuiet, a.piggybackDelay, c.maxQuiet, c.piggybackDelay)
		}
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
	if a.maxQuiet != 30*sim.Second || a.cfg.SummaryInterval != 40*sim.Second {
		t.Errorf("maxQuiet %v / SummaryInterval %v, want 6x and 8x the advertise interval",
			a.maxQuiet, a.cfg.SummaryInterval)
	}
	if got := NewAgent(Config{Probe: probe.Config{Window: 25}}, 4).cfg.Probe.Window; got != 25 {
		t.Errorf("Probe.Window = %d, want the 25 the caller set", got)
	}

	// The default prober: every probe it airs is padded to the data size.
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
		if b != 1500 {
			t.Errorf("probe of %d B on the air, want the 1500 B padding", b)
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
