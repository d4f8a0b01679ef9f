package congest

import (
	"testing"

	"repro/internal/sim"
)

// TestFixedParameters pins the credit policy's tuning constants: the grant
// timers PERFORMANCE.md's mitigation tables were measured under and the
// credit floor.
func TestFixedParameters(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want interface{}
	}{
		{"gateTimeout", gateTimeout, 60 * sim.Millisecond},
		{"needAdvertiseMax", needAdvertiseMax, 8},
		{"grantRefresh", grantRefresh, 150 * sim.Millisecond},
		{"grantMinInterval", grantMinInterval, 50 * sim.Millisecond},
		{"grantTTL", grantTTL, 500 * sim.Millisecond},
		{"creditMinK", creditMinK, 16},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
