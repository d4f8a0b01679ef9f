package experiments

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Telemetry overhead guard (`morebench -telemetry-overhead`): times the
// same deterministic MORE transfer with telemetry off and with a full Hub
// installed, and gates the on path to a bounded overhead of off.

// TelemetryBenchResult is the measured pair.
type TelemetryBenchResult struct {
	// Workload names the timed scenario.
	Workload string `json:"workload"`
	// Runs is how many repetitions each timing took the minimum over.
	Runs int `json:"runs"`
	// OffNsPerRun / OnNsPerRun are the best (minimum) wall-clock times of
	// one full simulation run with telemetry off / with a Hub installed.
	OffNsPerRun float64 `json:"off_ns_per_run"`
	OnNsPerRun  float64 `json:"on_ns_per_run"`
	// OverheadPct is 100*(On-Off)/Off.
	OverheadPct float64 `json:"overhead_pct"`
	// Events is the event count one instrumented run emits.
	Events int64 `json:"events"`
}

// telemetryWorkload builds the timed scenario: a 128 KB MORE transfer
// across the paper's 20-node testbed — enough traffic to emit tens of
// thousands of events, small enough to repeat many times.
func telemetryWorkload() (*graph.Topology, Pair, Options) {
	topo := graph.Testbed(7)
	opts := DefaultOptions()
	opts.FileBytes = 128 << 10
	opts.Seed = 7
	return topo, Pair{Src: 0, Dst: 19}, opts
}

// TelemetryBench runs the workload `runs` (at least 1) times per mode and
// keeps the minimum — the standard way to strip scheduler noise from a
// deterministic, allocation-stable benchmark.
func TelemetryBench(runs int) *TelemetryBenchResult {
	topo, pair, opts := telemetryWorkload()
	res := &TelemetryBenchResult{Workload: "more-testbed-128k", Runs: runs}

	timeRuns := func(instrument bool) float64 {
		best := time.Duration(0)
		for i := 0; i < runs; i++ {
			o := opts
			var hub *telemetry.Hub
			if instrument {
				hub = telemetry.NewHub(telemetry.Config{})
				o.Telemetry = hub
			}
			start := time.Now()
			RunDetailed(topo, MORE, []Pair{pair}, o)
			d := time.Since(start)
			if best == 0 || d < best {
				best = d
			}
			if hub != nil && res.Events == 0 {
				res.Events = hub.Events()
			}
		}
		return float64(best.Nanoseconds())
	}

	res.OffNsPerRun = timeRuns(false)
	res.OnNsPerRun = timeRuns(true)
	if res.OffNsPerRun > 0 {
		res.OverheadPct = 100 * (res.OnNsPerRun - res.OffNsPerRun) / res.OffNsPerRun
	}
	return res
}

// Table renders the result.
func (r *TelemetryBenchResult) Table() string {
	return fmt.Sprintf(
		"telemetry overhead (%s, min of %d runs):\n  off %8.2f ms/run\n  on  %8.2f ms/run  (%+.1f%%, %d events)\n",
		r.Workload, r.Runs, r.OffNsPerRun/1e6, r.OnNsPerRun/1e6, r.OverheadPct, r.Events)
}

// TelemetryOverheadLimitPct is the acceptance bound on enabled-telemetry
// overhead (ISSUE 9: "enabled within 10%").
const TelemetryOverheadLimitPct = 10.0

// CompareTelemetryBaselines gates a measurement on its on/off ratio: cur's
// overhead must not exceed TelemetryOverheadLimitPct. Both sides of the
// ratio come from one process on one runner, so the bound carries across
// machines where an absolute time would not. Returns one message per
// violation.
func CompareTelemetryBaselines(cur *TelemetryBenchResult) []string {
	if cur.OverheadPct > TelemetryOverheadLimitPct {
		return []string{fmt.Sprintf("telemetry-on overhead %.1f%% exceeds the %.0f%% bound",
			cur.OverheadPct, TelemetryOverheadLimitPct)}
	}
	return nil
}
