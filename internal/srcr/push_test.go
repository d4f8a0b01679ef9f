package srcr

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

func pushChain(t *testing.T, n int) (*sim.Simulator, []*Node) {
	t.Helper()
	topo := graph.Line(n, 0.95, 20)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: graph.RouteThreshold, AckAware: true})
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(DefaultConfig(), oracle)
		s.Attach(graph.NodeID(i), nodes[i])
	}
	return s, nodes
}

// TestPushCBRGeneratesAndDelivers runs a constant-rate push flow over a
// short chain with no congestion layer: the source must generate exactly
// its configured packet count on schedule, and the good-link chain must
// deliver nearly all of it to the ordinary Srcr sink.
func TestPushCBRGeneratesAndDelivers(t *testing.T) {
	s, nodes := pushChain(t, 3)
	tr := flow.Traffic{Model: flow.PushCBR, RatePPS: 100, Packets: 50}
	file := flow.NewFile(50*256, 256, 7)
	nodes[2].ExpectFlow(1, file, nil)
	var srcEnd sim.Time
	if err := nodes[0].StartPushFlow(1, 2, tr, file, func() { srcEnd = s.Now() }); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * sim.Second)

	gen, drops, done := nodes[0].PushStats(1)
	if !done || gen != 50 {
		t.Fatalf("generation: done=%v generated=%d drops=%d", done, gen, drops)
	}
	// onDone fires with the last packet (seq 49), generated 49 intervals
	// after the start.
	wantEnd := sim.Time(49) * tr.Interval()
	if srcEnd != wantEnd {
		t.Errorf("generation clock drifted: last packet at %v, want %v", srcEnd, wantEnd)
	}
	sink := nodes[2].Result(1)
	if sink.PacketsDelivered < 45 {
		t.Errorf("good-link chain delivered only %d/50", sink.PacketsDelivered)
	}
	if !sink.Verified {
		t.Error("delivered payloads failed verification")
	}
}

// TestPushSinkRejectsAnotherSeed: a push source makes its packets a chunk
// at a time, and the sink checks each against the file it expects; a file
// of the same shape under another seed delivers but fails verification.
func TestPushSinkRejectsAnotherSeed(t *testing.T) {
	s, nodes := pushChain(t, 2)
	tr := flow.Traffic{Model: flow.PushCBR, RatePPS: 100, Packets: 70}
	file := flow.NewFile(70*256, 256, 7)
	nodes[1].ExpectFlow(1, flow.NewFile(file.Bytes, file.PktSize, 8), nil)
	if err := nodes[0].StartPushFlow(1, 1, tr, file, nil); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * sim.Second)
	if sink := nodes[1].Result(1); sink.PacketsDelivered == 0 || sink.Verified {
		t.Fatalf("sink expecting another seed: %v, verified=%v", sink, sink.Verified)
	}
}

// TestPushOnOffClock pins the on/off generation pattern exactly: with a
// 100 ms on / 100 ms off cycle at 100 pps, each cycle carries ten packets
// at 10 ms spacing, so packet 49 leaves at 4 full cycles + 90 ms.
func TestPushOnOffClock(t *testing.T) {
	s, nodes := pushChain(t, 2)
	tr := flow.Traffic{
		Model: flow.PushOnOff, RatePPS: 100, Packets: 50,
		On: 100 * sim.Millisecond, Off: 100 * sim.Millisecond,
	}
	file := flow.NewFile(50*256, 256, 7)
	nodes[1].ExpectFlow(1, file, nil)
	var srcEnd sim.Time
	if err := nodes[0].StartPushFlow(1, 1, tr, file, func() { srcEnd = s.Now() }); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * sim.Second)
	want := 4*(tr.On+tr.Off) + 90*sim.Millisecond
	if srcEnd != want {
		t.Errorf("on/off schedule: last packet at %v, want %v", srcEnd, want)
	}
}

// TestPushValidation rejects unusable push parameters.
func TestPushValidation(t *testing.T) {
	_, nodes := pushChain(t, 2)
	file := flow.NewFile(10*256, 256, 7)
	bad := []flow.Traffic{
		{Model: flow.PushCBR, RatePPS: 0, Packets: 10},     // zero rate
		{Model: flow.PushCBR, RatePPS: 100, Packets: 0},    // no workload
		{Model: flow.PullFile},                             // not a push model
		{Model: flow.PushOnOff, RatePPS: 100, Packets: 10}, // missing on/off
		{Model: flow.PushCBR, RatePPS: 100, Packets: 11},   // file/packets mismatch
	}
	for i, tr := range bad {
		if err := nodes[0].StartPushFlow(flow.ID(i+1), 1, tr, file, nil); err == nil {
			t.Errorf("bad traffic %d accepted: %+v", i, tr)
		}
	}
	ok := flow.Traffic{Model: flow.PushCBR, RatePPS: 100, Packets: 10}
	if err := nodes[0].StartPushFlow(99, 1, ok, file, nil); err != nil {
		t.Errorf("valid traffic rejected: %v", err)
	}
	if err := nodes[0].StartPushFlow(99, 1, ok, file, nil); err == nil {
		t.Error("duplicate push flow accepted")
	}
}

// TestPushBareModeBoundedQueue overloads a node with no congestion layer:
// the local drop-tail queue must cap memory and count source drops while
// the flow still finishes its schedule.
func TestPushBareModeBoundedQueue(t *testing.T) {
	s, nodes := pushChain(t, 2)
	// 5000 pps is far beyond what one 802.11b hop drains.
	tr := flow.Traffic{Model: flow.PushCBR, RatePPS: 5000, Packets: 500}
	file := flow.NewFile(500*1500, 1500, 7)
	nodes[1].ExpectFlow(1, file, nil)
	if err := nodes[0].StartPushFlow(1, 1, tr, file, nil); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * sim.Second)
	gen, drops, done := nodes[0].PushStats(1)
	if !done || gen != 500 {
		t.Fatalf("overloaded source did not finish: done=%v generated=%d", done, gen)
	}
	if drops == 0 {
		t.Error("no source drops under 12x overload — queue is unbounded?")
	}
	if got := len(nodes[0].pushQ); got > queueSize {
		t.Errorf("push queue %d exceeds bound %d", got, queueSize)
	}
}
