package probe

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestFixedParameters pins the Roofnet-like probing cadence (§4.1.2's
// measurement step): one probe a second, ±100 ms, 10-probe ETX window,
// every probe padded to the 1500 B data size.
func TestFixedParameters(t *testing.T) {
	if interval != sim.Second || jitter != 100*sim.Millisecond || defaultWindow != 10 || padToBytes != 1500 {
		t.Fatalf("probe constants = %v / %v / %d / %d B, want 1s / 100ms / 10 / 1500 B",
			interval, jitter, defaultWindow, padToBytes)
	}
}

// TestPartlyFilledConfigKeepsItsFields: NewProber defaults a zero Window and
// keeps every field that is set.
func TestPartlyFilledConfigKeepsItsFields(t *testing.T) {
	if got := NewProber(Config{}, 2).cfg; got != DefaultConfig() {
		t.Errorf("zero Config = %+v, want DefaultConfig() %+v", got, DefaultConfig())
	}
	if got := NewProber(Config{Window: 60}, 2).cfg; got.Window != 60 {
		t.Errorf("Config{Window: 60} became %+v; the window must stay", got)
	}
	got := NewProber(Config{DeadInterval: 4 * sim.Second}, 2).cfg
	if got.DeadInterval != 4*sim.Second || got.Window != 10 {
		t.Errorf("Config{DeadInterval: 4s} became %+v, want the interval kept and Window 10", got)
	}
}

// TestProberNetworkBound: a prober numbers its records in two bytes, so it
// refuses a network of more than 65 535 nodes at construction instead of
// wrapping a record number.
func TestProberNetworkBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewProber accepted 65 536 nodes")
		}
	}()
	NewProber(Config{}, math.MaxUint16+1)
}
