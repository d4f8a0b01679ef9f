package main

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestProgressLine pins the heartbeat's text: totals are since the start,
// rates since the previous tick.
func TestProgressLine(t *testing.T) {
	first := progressTick{wall: 5 * time.Second, events: 2_000_000, simAt: 10 * sim.Second}
	second := progressTick{wall: 10 * time.Second, events: 2_500_000, simAt: 10*sim.Second + 500*sim.Millisecond}
	for _, tc := range []struct {
		name      string
		prev, cur progressTick
		want      string
	}{
		{"first tick: rates since the start", progressTick{}, first,
			"moresim: 5s elapsed, 2000000 events (400000/s), sim clock 10.000s (2 sim-s/s)"},
		{"later tick: rates since the one before, not averages", first, second,
			"moresim: 10s elapsed, 2500000 events (100000/s), sim clock 10.500s (0.1 sim-s/s)"},
		{"a stalled run shows as zero rates", second, progressTick{wall: 15 * time.Second, events: 2_500_000, simAt: second.simAt},
			"moresim: 15s elapsed, 2500000 events (0/s), sim clock 10.500s (0 sim-s/s)"},
		{"no wall time between ticks: no division", second, second,
			"moresim: 10s elapsed, 2500000 events (0/s), sim clock 10.500s (0 sim-s/s)"},
	} {
		if got := progressLine(tc.prev, tc.cur); got != tc.want {
			t.Errorf("%s:\n got  %q\n want %q", tc.name, got, tc.want)
		}
	}
}
