package srcr

import (
	"testing"

	"repro/internal/sim"
)

// TestFixedParameters pins the §4.1.2 50-packet driver queue and the
// end-to-end ARQ's NACK bound and FIN retry timer (the Onoe numbers have
// their own table, TestOnoeFixedParameters).
func TestFixedParameters(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want interface{}
	}{
		{"queueSize", queueSize, 50},
		{"maxNackEntries", maxNackEntries, 700},
		{"nackTimeout", nackTimeout, 500 * sim.Millisecond},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
