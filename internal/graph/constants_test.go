package graph

import "testing"

// TestFixedParameters pins the channel and building constants the Testbed
// and Geometric generators share, and the §4.1 testbed's shape, to the
// values every golden topology was drawn with.
func TestFixedParameters(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MidRange", MidRange, 28},
		{"floorSep", floorSep, 4},
		{"shadowing", shadowing, 1.1},
		{"minProb", minProb, 0.05},
		{"testbedNodes", testbedNodes, 20},
		{"testbedFloors", testbedFloors, 3},
		{"floorW", floorW, 120},
		{"floorH", floorH, 80},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
