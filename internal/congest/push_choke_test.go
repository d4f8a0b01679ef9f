package congest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/srcr"
)

// TestPushOverloadTriggersChoke closes the "CHOKe never fires" gap: with
// pull-based transfers the bounded queue backpressures through the MAC and
// never overflows, so the same-flow drop of the Choke policy was dead code
// outside gated queues. A push source injects frames through the layer's
// FrameSink the moment its clock fires, so a source running far above the
// drain rate overflows the queue — and because its own frames dominate the
// queue, the CHOKe victim comparison matches and the same-flow pair drop
// actually executes.
func TestPushOverloadTriggersChoke(t *testing.T) {
	topo := graph.Line(3, 0.95, 20)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: graph.RouteThreshold, AckAware: true})
	nodes := make([]*srcr.Node, topo.N())
	layers := make([]*Layer, topo.N())
	for i := range nodes {
		nodes[i] = srcr.NewNode(srcr.DefaultConfig(), oracle)
		layers[i] = New(Config{Policy: Choke}, nodes[i])
		s.Attach(graph.NodeID(i), layers[i])
	}
	// ~2000 pps of 1500 B frames is several times one 802.11b hop's drain.
	tr := flow.Traffic{Model: flow.PushCBR, RatePPS: 2000, Packets: 1000}
	file := flow.NewFile(1000*1500, 1500, 3)
	nodes[2].ExpectFlow(1, file, nil)
	if err := nodes[0].StartPushFlow(1, 2, tr, file, nil); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * sim.Second)

	var st Stats
	for _, l := range layers {
		st.Add(l.Stats)
	}
	if st.Pushed == 0 {
		t.Fatal("push source never reached the congestion layer's FrameSink")
	}
	if st.ChokeDrops == 0 {
		t.Errorf("CHOKe same-flow drop never fired under 5x push overload: %+v", st)
	}
	gen, srcDrops, done := nodes[0].PushStats(1)
	if !done || gen != 1000 {
		t.Fatalf("push schedule incomplete: done=%v generated=%d", done, gen)
	}
	if srcDrops != 0 {
		t.Errorf("source used its bare local queue (%d drops) despite the layer's sink", srcDrops)
	}
	if got := nodes[2].Result(1); got.PacketsDelivered == 0 {
		t.Error("nothing delivered through the choked queue")
	}
}

// TestPushSentReachesSrcrThroughMulti pins Sent routing for push-injected
// frames in a mixed-protocol stack: they enter the layer through the
// FrameSink, bypassing Multi's Pull, so no member is listed as their
// supplier and Multi must fan the outcome out to its members — srcr's
// MAC-drop accounting must see its datagrams' fates exactly as it would
// without the composite.
func TestPushSentReachesSrcrThroughMulti(t *testing.T) {
	topo := graph.Line(3, 0.95, 20)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: graph.RouteThreshold, AckAware: true})
	srcrNodes := make([]*srcr.Node, topo.N())
	coreNodes := make([]*core.Node, topo.N())
	for i := range srcrNodes {
		srcrNodes[i] = srcr.NewNode(srcr.DefaultConfig(), oracle)
		coreNodes[i] = core.NewNode(core.DefaultConfig(), oracle)
		s.Attach(graph.NodeID(i), New(Config{Policy: Choke}, Combine(srcrNodes[i], coreNodes[i])))
	}
	tr := flow.Traffic{Model: flow.PushCBR, RatePPS: 2000, Packets: 1000}
	file := flow.NewFile(1000*1500, 1500, 3)
	srcrNodes[2].ExpectFlow(1, file, nil)
	if err := srcrNodes[0].StartPushFlow(1, 2, tr, file, nil); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * sim.Second)
	var drops int64
	for _, n := range srcrNodes {
		drops += n.MACDrops
	}
	if drops == 0 {
		t.Error("push frame outcomes never reached srcr through the mixed stack (Multi dropped unowned Sent callbacks)")
	}
}

// TestPushCompetingFlowsChokeFairness runs a responsive-rate push flow
// beside an aggressive one through a shared forwarder: CHOKe's design
// property is that the dominant flow penalizes itself, so the blaster must
// absorb more drops than the polite flow.
func TestPushCompetingFlowsChokeFairness(t *testing.T) {
	// A 4-node star: 0 and 1 both route through 2 to reach 3.
	topo := graph.New(4)
	topo.SetLink(0, 2, 0.95)
	topo.SetLink(1, 2, 0.95)
	topo.SetLink(2, 3, 0.95)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: graph.RouteThreshold, AckAware: true})
	nodes := make([]*srcr.Node, topo.N())
	layers := make([]*Layer, topo.N())
	for i := range nodes {
		nodes[i] = srcr.NewNode(srcr.DefaultConfig(), oracle)
		layers[i] = New(Config{Policy: Choke}, nodes[i])
		s.Attach(graph.NodeID(i), layers[i])
	}
	polite := flow.Traffic{Model: flow.PushCBR, RatePPS: 50, Packets: 300}
	blast := flow.Traffic{Model: flow.PushCBR, RatePPS: 1500, Packets: 9000}
	politeFile := flow.NewFile(300*1500, 1500, 1)
	blastFile := flow.NewFile(9000*1500, 1500, 2)
	nodes[3].ExpectFlow(1, politeFile, nil)
	nodes[3].ExpectFlow(2, blastFile, nil)
	if err := nodes[0].StartPushFlow(1, 3, polite, politeFile, nil); err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].StartPushFlow(2, 3, blast, blastFile, nil); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * sim.Second)

	var st Stats
	for _, l := range layers {
		st.Add(l.Stats)
	}
	if st.ChokeDrops == 0 {
		t.Fatal("no CHOKe drops at the shared forwarder")
	}
	pol := nodes[3].Result(1)
	bl := nodes[3].Result(2)
	if pol.PacketsDelivered == 0 {
		t.Fatal("polite flow starved entirely")
	}
	politeLoss := 1 - float64(pol.PacketsDelivered)/300
	blastLoss := 1 - float64(bl.PacketsDelivered)/9000
	if blastLoss <= politeLoss {
		t.Errorf("CHOKe did not penalize the dominant flow: polite loss %.2f, blast loss %.2f",
			politeLoss, blastLoss)
	}
}
