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

// TestCubicEndToEnd runs a full MORE transfer over a lossy chain under the
// cubic policy: the credit machinery must still gate relays (grants flow,
// giving the source its RTT samples) while the cubic window paces the
// source, and the transfer must complete.
func TestCubicEndToEnd(t *testing.T) {
	topo := graph.LossyChain(5, 20, 30)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: graph.RouteThreshold, AckAware: true})
	cfg := core.DefaultConfig()
	cfg.BatchSize = creditMinK
	cfg.PayloadSize = 256
	nodes := make([]*core.Node, topo.N())
	layers := make([]*Layer, topo.N())
	for i := range nodes {
		nodes[i] = core.NewNode(cfg, oracle)
		layers[i] = New(Config{Policy: Cubic}, nodes[i])
		s.Attach(graph.NodeID(i), layers[i])
	}
	file := flow.NewFile(4096, 256, 1)
	var result flow.Result
	nodes[4].ExpectFlow(1, file, nil)
	if err := nodes[0].StartFlow(1, 4, file, func(r flow.Result) { result = r }); err != nil {
		t.Fatal(err)
	}
	s.Run(120 * sim.Second)
	if !result.Completed {
		t.Fatalf("transfer did not complete under cubic policy: %+v", result)
	}
	var grants int64
	for _, l := range layers {
		grants += l.Stats.GrantTx
	}
	if grants == 0 {
		t.Error("cubic policy suppressed the credit plane's grants")
	}
	// The source held cubic per-flow state and took RTT samples from the
	// grant/ACK round trips (SRTT departs from its cold-start seed).
	cf := layers[0].cubic[1]
	if cf == nil {
		t.Fatal("source never created cubic flow state")
	}
	if cf.srtt == cubicDefaultRTT {
		t.Error("no RTT sample ever updated the source's SRTT")
	}
	// Relays never source frames, so they never grow cubic state.
	for i := 1; i < len(layers); i++ {
		if len(layers[i].cubic) != 0 {
			t.Errorf("relay %d holds cubic state for %d flows", i, len(layers[i].cubic))
		}
	}
}

// TestCubicPacesSourceNotRelay: the window's token bucket must gate a
// backlogged source immediately, then drain it at the paced rate as
// simulated time passes — and never touch relay traffic.
func TestCubicPacesSourceNotRelay(t *testing.T) {
	p := &fakeProto{}
	for i := 0; i < 1000; i++ {
		p.frames = append(p.frames, moreFrame(1, 0, 0, 0))
	}
	l, s := newTestLayer(t, Config{Policy: Cubic}, p)
	sent := 0
	for i := 0; i < 20; i++ {
		if l.Pull() != nil {
			sent++
		}
	}
	if sent > int(bucketDepth)+1 {
		t.Errorf("cubic token bucket did not gate: %d sends with depth %v", sent, bucketDepth)
	}
	// The layer's wake events drive the node autonomously: over simulated
	// time the backlog must drain at the paced rate — neither stalled (the
	// bucket never refilling) nor unbounded (the window not gating). No
	// feedback reaches the source, so its window stays at or below
	// cubicInitWindow and its RTT at the cold-start seed.
	before := len(p.frames)
	s.After(sim.Second, func() {})
	s.Run(2 * sim.Second)
	drained := before - len(p.frames)
	if drained == 0 {
		t.Error("paced source never drained: bucket did not refill with time")
	}
	if limit := int(2*cubicInitWindow/cubicDefaultRTT.Seconds() + bucketDepth); drained > limit {
		t.Errorf("source drained %d frames in 2s, over the paced bound %d: window pacing not applied", drained, limit)
	}

	// Relay traffic (sourced elsewhere) bypasses the window entirely: a
	// fresh layer offered only relay frames sends them all, without ever
	// allocating per-flow cubic state.
	rp := &fakeProto{}
	for i := 0; i < 20; i++ {
		rp.frames = append(rp.frames, moreFrame(2, 0, 5, 0))
	}
	rl, _ := newTestLayer(t, Config{Policy: Cubic}, rp)
	relayed := 0
	for i := 0; i < 20; i++ {
		if rl.Pull() != nil {
			relayed++
		}
	}
	if relayed != 20 {
		t.Errorf("relay frames gated by cubic source pacing: %d of 20 sent", relayed)
	}
	if len(rl.cubic) != 0 {
		t.Errorf("relay traffic allocated cubic state for %d flows", len(rl.cubic))
	}
}

// TestCubicStagnationShrinksWindow drives a source against a wall (no
// receiver progress) and checks the stagnation rule registers congestion
// events: w_max collapses toward the floor and decreases are counted.
func TestCubicStagnationShrinksWindow(t *testing.T) {
	p := &fakeProto{}
	for i := 0; i < 400; i++ {
		p.frames = append(p.frames, moreFrame(1, 0, 0, 0))
	}
	l, s := newTestLayer(t, Config{Policy: Cubic}, p)
	for i := 0; i < 40; i++ {
		l.Pull()
		s.Run(s.Now() + sim.Second/10)
	}
	if l.Stats.RateDecreases == 0 {
		t.Error("stagnating batch never triggered a cubic congestion event")
	}
	cf := l.cubic[1]
	if cf == nil {
		t.Fatal("no cubic state")
	}
	if cf.wmax >= cubicInitWindow {
		t.Errorf("w_max did not shrink under stagnation: %v", cf.wmax)
	}
}

// TestCombineCreditCubicStacking runs the mixed-protocol composition the
// scenario engine builds — srcr and MORE members under one cubic layer —
// and checks the stacking holds: the layer's credit plane still grants and
// completes the MORE transfer while srcr datagram traffic shares the node.
func TestCombineCreditCubicStacking(t *testing.T) {
	topo := graph.Line(4, 0.9, 20)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: graph.RouteThreshold, AckAware: true})
	cfg := core.DefaultConfig()
	cfg.BatchSize = creditMinK
	cfg.PayloadSize = 256
	srcrNodes := make([]*srcr.Node, topo.N())
	coreNodes := make([]*core.Node, topo.N())
	layers := make([]*Layer, topo.N())
	for i := range srcrNodes {
		srcrNodes[i] = srcr.NewNode(srcr.DefaultConfig(), oracle)
		coreNodes[i] = core.NewNode(cfg, oracle)
		layers[i] = New(Config{Policy: Cubic}, Combine(srcrNodes[i], coreNodes[i]))
		s.Attach(graph.NodeID(i), layers[i])
	}
	moreFile := flow.NewFile(4096, 256, 1)
	pushFile := flow.NewFile(200*256, 256, 2)
	tr := flow.Traffic{Model: flow.PushCBR, RatePPS: 100, Packets: 200}
	var moreRes flow.Result
	coreNodes[3].ExpectFlow(1, moreFile, nil)
	srcrNodes[3].ExpectFlow(2, pushFile, nil)
	if err := coreNodes[0].StartFlow(1, 3, moreFile, func(r flow.Result) { moreRes = r }); err != nil {
		t.Fatal(err)
	}
	if err := srcrNodes[0].StartPushFlow(2, 3, tr, pushFile, nil); err != nil {
		t.Fatal(err)
	}
	s.Run(120 * sim.Second)
	if !moreRes.Completed {
		t.Fatalf("MORE transfer failed under cubic in a mixed stack: %+v", moreRes)
	}
	var st Stats
	for _, l := range layers {
		st.Add(l.Stats)
	}
	if st.GrantTx == 0 {
		t.Error("no grants in the cubic mixed stack")
	}
	if srcrNodes[3].Result(2).PacketsDelivered == 0 {
		t.Error("push traffic starved under the cubic layer")
	}
}

// recyclingProto hands every frame back the way the data protocols do: Sent
// poisons the Srcr message and empties the frame, for reuse by the next send.
type recyclingProto struct{ fakeProto }

func (p *recyclingProto) Sent(f *sim.Frame, ok bool) {
	p.fakeProto.Sent(f, ok)
	if m, isSrcr := f.Payload.(*srcr.DataMsg); isSrcr {
		*m = srcr.DataMsg{Seq: -1, Hop: -1}
	}
	*f = sim.Frame{}
}

// TestCubicReadsFailedFrameBeforeHandingItBack: a Srcr source frame the MAC
// gave up on is Cubic's congestion signal. The layer must read the frame
// before the protocol recycles it in Sent, or the decrease is lost.
func TestCubicReadsFailedFrameBeforeHandingItBack(t *testing.T) {
	p := &recyclingProto{}
	l, _ := newTestLayer(t, Config{Policy: Cubic}, p)
	m := &srcr.DataMsg{Flow: 7, Route: []graph.NodeID{0, 1}, Hop: 0}
	l.Sent(&sim.Frame{From: 0, To: 1, Bytes: 100, FlowID: 7, Payload: m}, false)
	if len(p.sent) != 1 || m.Hop != -1 {
		t.Fatal("the protocol did not get its frame back")
	}
	if l.Stats.RateDecreases != 1 {
		t.Fatalf("%d rate decreases after a failed source frame, want 1", l.Stats.RateDecreases)
	}
}
