package probe

import (
	"testing"

	"repro/internal/sim"
)

// TestFixedParameters pins the Roofnet-like probing cadence (§4.1.2's
// measurement step): one probe a second, ±100 ms, 10-probe ETX window.
func TestFixedParameters(t *testing.T) {
	if interval != sim.Second || jitter != 100*sim.Millisecond || defaultWindow != 10 {
		t.Fatalf("probe constants = %v / %v / %d, want 1s / 100ms / 10", interval, jitter, defaultWindow)
	}
}

// TestPartlyFilledConfigKeepsItsFields: NewProber defaults field by field.
// Only the wholly zero Config means DefaultConfig(); a zero PadToBytes next
// to a set field is the minimal-probe setting and stays.
func TestPartlyFilledConfigKeepsItsFields(t *testing.T) {
	if got := NewProber(Config{}).cfg; got != DefaultConfig() {
		t.Errorf("zero Config = %+v, want DefaultConfig() %+v", got, DefaultConfig())
	}
	got := NewProber(Config{Window: 60}).cfg
	if got.Window != 60 || got.PadToBytes != 0 {
		t.Errorf("Config{Window: 60} became %+v; the window must stay and probes stay minimal", got)
	}
	got = NewProber(Config{DeadInterval: 4 * sim.Second}).cfg
	if got.DeadInterval != 4*sim.Second || got.Window != 10 {
		t.Errorf("Config{DeadInterval: 4s} became %+v, want the interval kept and Window 10", got)
	}
}
