package sim

import "testing"

// TestFixedParameters pins the 802.11b MAC/PHY constants to the values the
// paper's testbed ran with (§4.1.2: 802.11b under one MAC, 5.5 Mb/s data,
// MAC ACKs at the 2 Mb/s basic rate).
func TestFixedParameters(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want interface{}
	}{
		{"SlotTime", SlotTime, 20 * Microsecond},
		{"sifs", sifs, 10 * Microsecond},
		{"DIFS", DIFS, 50 * Microsecond},
		{"CWMin", CWMin, 31},
		{"cwMax", cwMax, 1023},
		{"retryLimit", retryLimit, 7},
		{"macAckBytes", macAckBytes, 14},
		{"basicRate", basicRate, Rate2},
		{"SenseThreshold", SenseThreshold, 0.01},
		{"interferenceThreshold", interferenceThreshold, 0.01},
		{"captureMargin", captureMargin, 2.0},
		{"minFrameDivisor", minFrameDivisor, 10},
		{"dupWindow", dupWindow, 4096},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	// DIFS = SIFS + 2 slots is the 802.11 identity the three timings obey.
	if DIFS != sifs+2*SlotTime {
		t.Errorf("DIFS %v != SIFS %v + 2 x slot %v", DIFS, sifs, SlotTime)
	}
}
