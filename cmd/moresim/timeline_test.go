package main

import (
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/srcr"
	"repro/internal/telemetry"
)

func TestTimelineEdgeCases(t *testing.T) {
	var l txLog
	if l.timeline(sim.Second, 0, 10) != "" {
		t.Error("inverted interval should render empty")
	}
	if out := l.timeline(0, sim.Second, 0); !strings.Contains(out, "timeline") {
		t.Error("zero width should use a default")
	}
}

// TestTimelineCapturesSimulatorEvents installs the log as a simulator's
// telemetry sink and checks a real transfer shows up: every transmitter gets
// a row, and nothing but transmissions is kept.
func TestTimelineCapturesSimulatorEvents(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.95)
	topo.SetLink(1, 2, 0.95)
	s := sim.New(topo, sim.DefaultConfig())
	txs := new(txLog)
	s.Telem = txs

	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	nodes := make([]*srcr.Node, 3)
	for i := range nodes {
		nodes[i] = srcr.NewNode(srcr.DefaultConfig(), oracle)
		s.Attach(graph.NodeID(i), nodes[i])
	}
	file := flow.NewFile(20*1500, 1500, 1)
	nodes[2].ExpectFlow(1, file, nil)
	if err := nodes[0].StartFlow(1, 2, file, nil); err != nil {
		t.Fatal(err)
	}
	s.Run(60 * sim.Second)

	if int64(len(*txs)) != s.Counters.Transmissions+s.Counters.MACAcks {
		t.Fatalf("log kept %d marks, medium saw %d data tx + %d MAC acks",
			len(*txs), s.Counters.Transmissions, s.Counters.MACAcks)
	}
	tl := txs.timeline(0, s.Now(), 40)
	for _, want := range []string{"node 0 ", "node 1 ", "node 2 ", "#"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
}

// TestTimelineKeepsTheWholeRun pins the two fixes that came with the move
// out of the bounded ring: the opening columns survive any number of later
// events, and the strip ends at the latest flow finish, not the first.
func TestTimelineKeepsTheWholeRun(t *testing.T) {
	var l txLog
	l.Emit(telemetry.Event{At: 0, Node: 7, Kind: telemetry.KindTx})
	l.Emit(telemetry.Event{At: 1, Node: 7, Kind: telemetry.KindRx}) // not a transmission
	for i := 0; i < 1<<17; i++ {                                    // twice the old ring
		l.Emit(telemetry.Event{At: int64(9 * sim.Second), Node: 8, Kind: telemetry.KindTx})
	}
	finish := func(end sim.Time) scenario.FlowOutcome { return scenario.FlowOutcome{Result: flow.Result{End: end}} }
	end := timelineEnd([]scenario.FlowOutcome{finish(2 * sim.Second), finish(10 * sim.Second), finish(0)})
	if end != 10*sim.Second {
		t.Fatalf("timeline end = %v, want the latest finish 10s", end)
	}
	tl := l.timeline(0, end, 10)
	if !strings.Contains(tl, "node 7   |#.........|") {
		t.Fatalf("opening column lost:\n%s", tl)
	}
	if !strings.Contains(tl, "node 8   |.........#|") {
		t.Fatalf("late activity past the first flow's finish missing:\n%s", tl)
	}
	if timelineEnd([]scenario.FlowOutcome{finish(0)}) != sim.Second {
		t.Fatal("a run where nothing finished should still show its first second")
	}
}
