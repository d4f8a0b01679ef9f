package telemetry

import "testing"

// TestFixedParameters pins the bounds that keep a Hub's memory finite on a
// run of millions of events: the per-node flight-recorder ring, the Chrome
// trace buffer, the retained stall post-mortems and a histogram's exact
// samples.
func TestFixedParameters(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"ringCap", ringCap, 256},
		{"chromeCap", chromeCap, 1 << 20},
		{"maxStallDumps", maxStallDumps, 16},
		{"histExactCap", histExactCap, 8192},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
