package congest

import (
	"testing"

	"repro/internal/sim"
)

// TestFixedParameters pins the pacing policies' tuning constants: the grant
// timers PERFORMANCE.md's mitigation tables were measured under, the pacing
// rate clamp, the RFC 8312 CUBIC C and β, the credit floor and the CUBIC
// source's bucket, seed window and stagnation factor.
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
		{"rateMin", rateMin, 64.0},
		{"rateMax", rateMax, 2000.0},
		{"cubicC", cubicC, 0.4},
		{"cubicBeta", cubicBeta, 0.7},
		{"creditMinK", creditMinK, 16},
		{"stagnationFactor", stagnationFactor, 10.0},
		{"bucketDepth", bucketDepth, 8.0},
		{"cubicInitWindow", cubicInitWindow, 32.0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
