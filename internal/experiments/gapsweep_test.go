package experiments

import (
	"testing"

	"repro/internal/sim"
)

// TestGapSweepDampingAxis drives the sweep's third knob: each damping value
// gets its own grid point with the knob echoed back, and the damped point
// floods fewer LSAs than the undamped one over the same topology and flow.
func TestGapSweepDampingAxis(t *testing.T) {
	cfg := DefaultGapSweepConfig()
	cfg.Windows = []int{10}
	cfg.AdvertiseIntervals = []sim.Time{2 * sim.Second}
	cfg.Damping = []float64{0, 0.2}
	cfg.Opts.FileBytes = 32 << 10
	pts := GapSweep(cfg)
	if len(pts) != 2 || pts[0].Damping != 0 || pts[1].Damping != 0.2 {
		t.Fatalf("want one point per damping value, echoed in order; got %+v", pts)
	}
	if pts[1].FloodTx >= pts[0].FloodTx {
		t.Fatalf("damping 0.2 flooded %d LSAs, undamped %d: triggered updates must save frames",
			pts[1].FloodTx, pts[0].FloodTx)
	}
}
