package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestTelemetryObservationOnly pins the overhead contract's behavioral
// half: installing a full Hub must not change a single counter or result —
// telemetry observes the simulation, it never participates in it.
func TestTelemetryObservationOnly(t *testing.T) {
	topo := TestbedTopology()
	opts := DefaultOptions()
	opts.FileBytes = 64 << 10
	pairs := []Pair{{Src: 0, Dst: 19}}

	plain := RunDetailed(topo, MORE, pairs, opts)

	hub := telemetry.NewHub(telemetry.Config{ChromeTrace: true})
	opts.Telemetry = hub
	instr := RunDetailed(topo, MORE, pairs, opts)

	if !reflect.DeepEqual(plain.Results, instr.Results) {
		t.Fatalf("results diverged under telemetry:\n  off: %+v\n  on:  %+v", plain.Results, instr.Results)
	}
	if !reflect.DeepEqual(plain.Counters, instr.Counters) {
		t.Fatalf("counters diverged under telemetry:\n  off: %+v\n  on:  %+v", plain.Counters, instr.Counters)
	}
	if plain.Telemetry != nil {
		t.Fatal("uninstrumented run exported a telemetry report")
	}
	if instr.Telemetry == nil {
		t.Fatal("instrumented run exported no telemetry report")
	}
	if hub.Events() == 0 {
		t.Fatal("hub saw no events")
	}
}

// TestTelemetryLatencyMetrics checks the metrics registry produces the
// streaming numbers the ISSUE demands: per-packet delivery percentiles and
// a per-flow deadline-miss rate.
func TestTelemetryLatencyMetrics(t *testing.T) {
	topo := TestbedTopology()
	opts := DefaultOptions()
	opts.FileBytes = 64 << 10
	pairs := []Pair{{Src: 0, Dst: 19}}

	hub := telemetry.NewHub(telemetry.Config{})
	opts.Telemetry = hub
	info := RunDetailed(topo, MORE, pairs, opts)
	if !info.Results[0].Completed {
		t.Fatal("transfer incomplete")
	}

	fm := info.Telemetry.FlowMetrics(1)
	if fm.Delivered != int64(info.Results[0].PacketsDelivered) {
		t.Fatalf("telemetry delivered %d, result says %d", fm.Delivered, info.Results[0].PacketsDelivered)
	}
	d := fm.Delivery
	if d.Count == 0 {
		t.Fatal("no per-packet delivery latency samples")
	}
	if d.P50Ms <= 0 || d.P95Ms < d.P50Ms || d.P99Ms < d.P95Ms || d.MaxMs < d.P99Ms {
		t.Fatalf("latency percentiles not ordered: %+v", d)
	}
	if fm.Decode.Count == 0 {
		t.Fatal("no batch decode latency samples")
	}
	if fm.DeadlineMissRate != 0 {
		t.Fatalf("no deadline configured but miss rate %v", fm.DeadlineMissRate)
	}

	// Re-run with an unmeetable 1 ns deadline: every latency-sampled
	// delivery must miss.
	hub = telemetry.NewHub(telemetry.Config{DeadlineNS: 1})
	opts.Telemetry = hub
	info = RunDetailed(topo, MORE, pairs, opts)
	fm = info.Telemetry.FlowMetrics(1)
	if fm.Delivery.Count == 0 || fm.DeadlineMissRate != 1 {
		t.Fatalf("1 ns deadline should miss every packet: %+v", fm)
	}

	// Per-node side: the source transmits and its queue-free counters add
	// up; every node that appears was touched.
	if len(info.Telemetry.Nodes) == 0 {
		t.Fatal("no node metrics")
	}
	var srcTx int64
	for _, n := range info.Telemetry.Nodes {
		if n.Node == 0 {
			srcTx = n.Tx
		}
	}
	if srcTx == 0 {
		t.Fatal("source shows no transmissions")
	}
}

// TestTelemetryStallDump forces a batch stall (the destination dies
// mid-transfer with repair armed) and checks the core watchdog's KindStall
// produces a structured flight-recorder post-mortem.
func TestTelemetryStallDump(t *testing.T) {
	topo := TestbedTopology()
	opts := DefaultOptions()
	opts.FileBytes = 256 << 10
	opts.Repair = 2 * sim.Second
	opts.Deadline = 12 * sim.Second

	var dumps []telemetry.StallDump
	hub := telemetry.NewHub(telemetry.Config{OnStall: func(d telemetry.StallDump) { dumps = append(dumps, d) }})
	opts.Telemetry = hub
	flows := []Flow{{Proto: MORE, Src: 0, Dst: 19, File: opts.file(opts.Seed)}}
	info := Execute(topo, opts, flows, []Action{
		{At: sim.Second, Do: func(x *Execution) { x.Sim.FailNode(19) }},
	}).Finish()
	if info.Results[0].Completed {
		t.Fatal("transfer completed despite dead destination")
	}

	if len(dumps) == 0 {
		t.Fatal("stalled flow produced no flight-recorder dump")
	}
	if len(dumps) != int(info.Telemetry.Stalls) {
		t.Fatalf("OnStall fired %d times, report counts %d stalls", len(dumps), info.Telemetry.Stalls)
	}
	d := dumps[0]
	if d.Node != 0 || d.Flow != 1 || d.Reason != "batch-stall" {
		t.Fatalf("dump identity wrong: %+v", d)
	}
	if len(d.Recent) == 0 {
		t.Fatal("dump carries no recent events")
	}
	// The ring is the source's own: every recent event happened at node 0,
	// ordered by time, ending with the stall itself.
	last := d.Recent[len(d.Recent)-1]
	if last.Kind != telemetry.KindStall {
		t.Fatalf("dump should end with the stall event, got %v", last.Kind)
	}
	for i, ev := range d.Recent {
		if ev.Node != 0 {
			t.Fatalf("event %d in node 0's ring belongs to node %d", i, ev.Node)
		}
		if i > 0 && ev.At < d.Recent[i-1].At {
			t.Fatal("ring events out of order")
		}
	}
}

// TestTelemetryBenchGate sanity-checks the overhead comparator without
// timing anything real.
func TestTelemetryBenchGate(t *testing.T) {
	cur := &TelemetryBenchResult{OffNsPerRun: 102, OnNsPerRun: 106, OverheadPct: 3.9}
	if bad := CompareTelemetryBaselines(cur); len(bad) != 0 {
		t.Fatalf("healthy measurement flagged: %v", bad)
	}
	heavy := &TelemetryBenchResult{OffNsPerRun: 100, OnNsPerRun: 120, OverheadPct: 20}
	if bad := CompareTelemetryBaselines(heavy); len(bad) != 1 {
		t.Fatalf("overhead violation not flagged: %v", bad)
	}
}

// TestTelemetryBenchTableSign: the overhead prints with its own sign, so a
// run where telemetry-on timed faster reads -28.7 %, not +-28.7 %.
func TestTelemetryBenchTableSign(t *testing.T) {
	for _, tc := range []struct {
		pct  float64
		want string
	}{
		{-28.7, "(-28.7%, 9 events)"},
		{3.9, "(+3.9%, 9 events)"},
	} {
		r := &TelemetryBenchResult{Workload: "w", Runs: 1, OffNsPerRun: 1e6, OnNsPerRun: 1e6, OverheadPct: tc.pct, Events: 9}
		if got := r.Table(); !strings.Contains(got, tc.want) {
			t.Errorf("overhead %v prints %q, want it to contain %q", tc.pct, got, tc.want)
		}
	}
}
