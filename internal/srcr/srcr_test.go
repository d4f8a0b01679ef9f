package srcr

import (
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

// runSrcr transfers file from src to dst over a shared oracle and runs until
// the source has seen the destination acknowledge the whole file (or the
// deadline), then lets the pipeline drain.
func runSrcr(t *testing.T, topo *graph.Topology, cfg Config, simCfg sim.Config,
	src, dst graph.NodeID, file flow.File, deadline sim.Time) (flow.Result, *sim.Simulator, []*Node) {
	t.Helper()
	return runSrcrExpecting(t, topo, cfg, simCfg, src, dst, file, file, deadline)
}

// runSrcrExpecting is runSrcr with the sink told to expect sinkFile.
func runSrcrExpecting(t *testing.T, topo *graph.Topology, cfg Config, simCfg sim.Config,
	src, dst graph.NodeID, file, sinkFile flow.File, deadline sim.Time) (flow.Result, *sim.Simulator, []*Node) {
	t.Helper()
	s := sim.New(topo, simCfg)
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	nodes := make([]*Node, topo.N())
	for i := range nodes {
		nodes[i] = NewNode(cfg, oracle)
		s.Attach(graph.NodeID(i), nodes[i])
	}
	nodes[dst].ExpectFlow(1, sinkFile, nil)
	finished := false
	if err := nodes[src].StartFlow(1, dst, file, func() { finished = true }); err != nil {
		t.Fatal(err)
	}
	s.RunWhile(deadline, func() bool {
		if !finished {
			return true
		}
		// Stop once the pipeline drains.
		for _, n := range nodes {
			if len(n.queue) > 0 || n.node.TxQueueActive() {
				return true
			}
		}
		return false
	})
	return nodes[dst].Result(1), s, nodes
}

func TestPerfectLinkDeliversEverything(t *testing.T) {
	topo := graph.Line(2, 1.0, 10)
	file := flow.NewFile(100*1500, 1500, 1)
	res, _, _ := runSrcr(t, topo, DefaultConfig(), sim.DefaultConfig(), 0, 1, file, 300*sim.Second)
	if res.PacketsDelivered != 100 || !res.Verified || !res.Completed {
		t.Fatalf("perfect link: %v", res)
	}
}

// TestPullSinkRejectsAnotherSeed: the sink checks every delivered sequence
// number against the file it expects, so a file of the same shape under
// another seed completes but fails verification.
func TestPullSinkRejectsAnotherSeed(t *testing.T) {
	topo := graph.Line(2, 1.0, 10)
	file := flow.NewFile(20*1500+11, 1500, 1)
	other := flow.NewFile(file.Bytes, file.PktSize, 2)
	res, _, _ := runSrcrExpecting(t, topo, DefaultConfig(), sim.DefaultConfig(), 0, 1, file, other, 300*sim.Second)
	if res.PacketsDelivered != 21 || !res.Completed {
		t.Fatalf("transfer incomplete: %v", res)
	}
	if res.Verified {
		t.Fatal("a sink expecting another seed verified the delivery")
	}
}

// TestPerfectChainHiddenTerminalLoss: even with perfect links, a 3-hop
// chain suffers hidden-terminal collisions (node 0 and node 2 cannot sense
// each other), so a few frames exhaust their retries; the end-to-end ARQ's
// passes bring them back and the file completes verified. RTS/CTS is
// disabled as in §4.1.
func TestPerfectChainHiddenTerminalLoss(t *testing.T) {
	topo := graph.Line(4, 1.0, 10)
	file := flow.NewFile(100*1500, 1500, 1)
	res, s, _ := runSrcr(t, topo, DefaultConfig(), sim.DefaultConfig(), 0, 3, file, 300*sim.Second)
	if res.PacketsDelivered != 100 || !res.Completed || !res.Verified {
		t.Fatalf("perfect chain: %v", res)
	}
	if s.Counters.Collisions == 0 {
		t.Fatal("expected hidden-terminal collisions on a 3-hop chain")
	}
}

// TestLossyLinkLosesSomePackets is the lossy line that needs the ARQ's
// repair pass. Per hop, the data gets through within 7 attempts with prob
// 1-0.5^7 ≈ 0.992 (receiver-side dedup means an ACK-loss retry still counts
// once), so two hops lose ≈ 2% of a pass to the MAC's retry limit; the
// destination names them in its NACK and a later pass delivers them.
func TestLossyLinkLosesSomePackets(t *testing.T) {
	topo := graph.Line(3, 0.5, 10)
	file := flow.NewFile(300*1500, 1500, 2)
	res, _, nodes := runSrcr(t, topo, DefaultConfig(), sim.DefaultConfig(), 0, 2, file, 600*sim.Second)
	if res.PacketsDelivered != 300 || !res.Completed || !res.Verified {
		t.Fatalf("lossy line did not complete: %v", res)
	}
	if !nodes[0].sources[1].done {
		t.Fatal("source never saw the empty NACK")
	}
	if pass := nodes[0].sources[1].pass; pass < 1 {
		t.Fatalf("completed in pass %d; 2 hops of p=0.5 should need a repair pass", pass)
	}
	drops := nodes[0].MACDrops + nodes[1].MACDrops
	if drops == 0 {
		t.Fatal("no MAC drops recorded on a lossy path")
	}
}

func TestRouteFollowsETX(t *testing.T) {
	// Good 2-hop path must beat a poor direct link.
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.95)
	topo.SetLink(1, 2, 0.95)
	topo.SetLink(0, 2, 0.3)
	file := flow.NewFile(50*1500, 1500, 3)
	res, s, _ := runSrcr(t, topo, DefaultConfig(), sim.DefaultConfig(), 0, 2, file, 300*sim.Second)
	if !res.Completed || !res.Verified {
		t.Fatalf("transfer incomplete: %v", res)
	}
	if s.Counters.TxByNode[1] < 40 {
		t.Fatalf("relay barely used (%d tx); route not via ETX", s.Counters.TxByNode[1])
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	// Two flows converging on one relay with a slow egress must overflow
	// its queueSize-packet queue.
	topo := graph.New(4)
	topo.SetLink(0, 2, 1)
	topo.SetLink(1, 2, 1)
	topo.SetLink(2, 3, 0.5) // slow egress
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = NewNode(DefaultConfig(), oracle)
		s.Attach(graph.NodeID(i), nodes[i])
	}
	file := flow.NewFile(200*1500, 1500, 4)
	nodes[3].ExpectFlow(1, file, nil)
	nodes[3].ExpectFlow(2, file, nil)
	nodes[0].StartFlow(1, 3, file, nil)
	nodes[1].StartFlow(2, 3, file, nil)
	s.Run(300 * sim.Second)
	if nodes[2].QueueDrops == 0 {
		t.Fatal("no queue drops despite converging flows on a slow relay")
	}
}

func TestNoRouteErrors(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.9)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.DefaultETXOptions())
	n := NewNode(DefaultConfig(), oracle)
	s.Attach(0, n)
	if err := n.StartFlow(1, 2, flow.NewFile(1500, 1500, 1), nil); err == nil {
		t.Fatal("StartFlow without route succeeded")
	}
}

func TestAutorateAdaptsDown(t *testing.T) {
	// With rate-dependent delivery, a marginal link is hopeless at 11 Mb/s
	// but fine at 1 Mb/s. Onoe must walk down from the top rate.
	topo := graph.New(2)
	topo.SetLink(0, 1, 0.45) // reference (5.5) marginal; 11 is ~0.22, 1 is ~0.82
	simCfg := sim.DefaultConfig()
	simCfg.RateAdjust = sim.AdaptRateScale(graph.RateScale)
	cfg := DefaultConfig()
	cfg.Autorate = true
	file := flow.NewFile(400*1500, 1500, 6)
	res, s, nodes := runSrcr(t, topo, cfg, simCfg, 0, 1, file, 600*sim.Second)
	if !res.Completed || !res.Verified {
		t.Fatalf("autorate transfer incomplete: %v", res)
	}
	o := nodes[0].onoeFor(1)
	if o.Rate() == sim.Rate11 {
		t.Fatalf("Onoe stayed at 11 Mb/s on a marginal link")
	}
	low := s.Counters.TxByRate[sim.Rate1] + s.Counters.TxByRate[sim.Rate2] + s.Counters.TxByRate[sim.Rate5_5]
	if low == 0 {
		t.Fatal("no transmissions at reduced rates")
	}
}

func TestAutorateStaysHighOnGoodLink(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 0.98)
	simCfg := sim.DefaultConfig()
	simCfg.RateAdjust = sim.AdaptRateScale(graph.RateScale)
	cfg := DefaultConfig()
	cfg.Autorate = true
	file := flow.NewFile(400*1500, 1500, 7)
	res, _, nodes := runSrcr(t, topo, cfg, simCfg, 0, 1, file, 600*sim.Second)
	if !res.Completed || !res.Verified {
		t.Fatalf("good link transfer incomplete: %v", res)
	}
	if nodes[0].onoeFor(1).Rate() != sim.Rate11 {
		t.Fatalf("Onoe left the top rate on a clean link: %v", nodes[0].onoeFor(1).Rate())
	}
}

// lineFlow attaches Srcr to a perfect 0 — 1 — 2 line and starts flow 1
// from 0 to 2, without running the simulator: tests drive Pull, Receive and
// Sent by hand.
func lineFlow(t *testing.T) []*Node {
	t.Helper()
	topo := graph.Line(3, 1.0, 10)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = NewNode(DefaultConfig(), oracle)
		s.Attach(graph.NodeID(i), nodes[i])
	}
	file := flow.NewFile(100*1500, 1500, 1)
	nodes[2].ExpectFlow(1, file, nil)
	if err := nodes[0].StartFlow(1, 2, file, nil); err != nil {
		t.Fatal(err)
	}
	return nodes
}

func TestDataSendAllocatesNothing(t *testing.T) {
	// Once the free lists are warm, a data frame pulled and handed back
	// allocates nothing: at the source, at a relay that forwards what it
	// received, and at a push source's tick.
	nodes := lineFlow(t)
	src := nodes[0].sources[1]
	one := []int{0}
	allocs := testing.AllocsPerRun(100, func() {
		src.pending = one
		f := nodes[0].Pull()
		if f == nil {
			t.Fatal("the source sent nothing")
		}
		src.pending = one // keep the pass open: its end would send a FIN
		nodes[0].Sent(f, true)
	})
	if allocs != 0 {
		t.Errorf("a source data send allocates %v objects, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		src.pending = one
		f := nodes[0].Pull()
		nodes[1].Receive(f)
		src.pending = one
		nodes[0].Sent(f, true)
		g := nodes[1].Pull()
		if g == nil || g.To != 2 {
			t.Fatal("the relay did not forward what it received")
		}
		nodes[1].Sent(g, true)
	})
	if allocs != 0 {
		t.Errorf("a relay forward allocates %v objects, want 0", allocs)
	}
	const packets = 1000
	tr := flow.Traffic{Model: flow.PushCBR, RatePPS: 100, Packets: packets}
	if err := nodes[0].StartPushFlow(2, 2, tr, flow.NewFile(packets*256, 256, 3), nil); err != nil {
		t.Fatal(err)
	}
	push := nodes[0].pushes[2]
	allocs = testing.AllocsPerRun(100, func() {
		nodes[0].pushTick(push)
		f := nodes[0].Pull()
		if f == nil || f.Payload.(*DataMsg).Flow != 2 {
			t.Fatal("the push tick queued nothing")
		}
		nodes[0].Sent(f, true)
	})
	if allocs != 0 {
		t.Errorf("a push tick allocates %v objects, want 0", allocs)
	}
}

func TestReleasedMessageIsPoisoned(t *testing.T) {
	// Sent poisons the message it hands back, keeping only its payload
	// storage, and the next send reuses it: a reader that kept the frame
	// past Sent finds no flow, no sequence, no hop, no route, no payload.
	nodes := lineFlow(t)
	f := nodes[0].Pull()
	m := f.Payload.(*DataMsg)
	storage := &m.buf[0]
	nodes[0].Sent(f, true)
	want := DataMsg{Flow: releasedFlow, Seq: -1, Hop: -1, buf: m.buf}
	if !reflect.DeepEqual(*m, want) {
		t.Fatalf("released message flow %d seq %d hop %d route %v, %d payload bytes; want sentinels, no route, no payload",
			m.Flow, m.Seq, m.Hop, m.Route, len(m.Payload))
	}
	if nodes[1].Receive(f); len(nodes[1].queue) != 0 {
		t.Fatal("a released frame was forwarded")
	}
	if g := nodes[0].Pull(); g != f || g.Payload != m || m.Seq != 1 || &m.Payload[0] != storage {
		t.Fatal("the next send did not reuse the released message and its bytes")
	}
}

func TestRelayOwnsWhatItQueues(t *testing.T) {
	// A relay queues its own copy of what it received: the sender's message
	// released and refilled with the next packet leaves the copy unchanged.
	nodes := lineFlow(t)
	file := nodes[0].sources[1].file
	f := nodes[0].Pull()
	nodes[1].Receive(f)
	q := nodes[1].queue[0]
	nodes[0].Sent(f, true)
	if g := nodes[0].Pull(); g != f || g.Payload.(*DataMsg).Seq != 1 {
		t.Fatal("the source did not refill its released message with packet 1")
	}
	if q.Seq != 0 || q.Hop != 1 || !file.Matches(0, q.Payload) {
		t.Fatalf("the relay's copy changed under the sender: seq %d hop %d", q.Seq, q.Hop)
	}
}

func TestSrcrFinalHopAndDropAllocateNothing(t *testing.T) {
	// Where a reception sends nothing on — delivery at the destination, a
	// drop at a full queue — it allocates nothing.
	nodes := lineFlow(t)
	toRelay := nodes[0].Pull()
	nodes[1].Receive(toRelay)
	toDst := nodes[1].Pull()
	sink := nodes[2].sinks[1]
	allocs := testing.AllocsPerRun(100, func() {
		sink.haveSeq[0] = false // deliver afresh, not as a duplicate
		nodes[2].Receive(toDst)
	})
	if allocs != 0 {
		t.Errorf("delivery at the final hop allocates %v objects, want 0", allocs)
	}
	if got := nodes[2].Result(1); got.PacketsDelivered != 101 || !got.Verified {
		t.Fatalf("sink after 101 deliveries: %v", got)
	}
	for len(nodes[1].queue) < queueSize {
		nodes[1].queue = append(nodes[1].queue, &DataMsg{})
	}
	allocs = testing.AllocsPerRun(100, func() { nodes[1].Receive(toRelay) })
	if allocs != 0 {
		t.Errorf("a drop at a full queue allocates %v objects, want 0", allocs)
	}
	if nodes[1].QueueDrops != 101 {
		t.Fatalf("%d queue drops, want 101", nodes[1].QueueDrops)
	}
}

func TestReceiverNeverChangesSentHop(t *testing.T) {
	// The destination delivers the message it received and a relay queues a
	// new one; neither may move the Hop its sender reads back in Sent.
	nodes := lineFlow(t)
	f := nodes[0].Pull()
	nodes[1].Receive(f)
	if hop := f.Payload.(*DataMsg).Hop; hop != 0 {
		t.Fatalf("queueing at the relay moved the source's Hop to %d", hop)
	}
	g := nodes[1].Pull()
	if g == f || g.Payload == f.Payload {
		t.Fatal("the relay forwarded the source's own frame")
	}
	nodes[2].Receive(g)
	if hop := g.Payload.(*DataMsg).Hop; hop != 1 {
		t.Fatalf("delivery moved the relay's Hop to %d", hop)
	}
	if got := nodes[2].Result(1).PacketsDelivered; got != 1 {
		t.Fatalf("%d packets delivered, want 1", got)
	}
	nodes[1].Sent(g, true)
	nodes[0].Sent(f, true)
	if nodes[1].Forwarded != 1 || nodes[0].Forwarded != 0 {
		t.Fatalf("forwarded counts relay %d, source %d; want 1, 0", nodes[1].Forwarded, nodes[0].Forwarded)
	}
	if nodes[0].sources[1].inFlight {
		t.Fatal("the source's Sent did not see its own hop-0 frame")
	}
}

func TestTestbedPairThroughput(t *testing.T) {
	topo, _ := graph.ConnectedTestbed(1)
	file := flow.NewFile(100*1500, 1500, 9)
	res, _, _ := runSrcr(t, topo, DefaultConfig(), sim.DefaultConfig(), 3, 17, file, 600*sim.Second)
	if !res.Completed || !res.Verified {
		t.Fatalf("testbed pair incomplete: %v", res)
	}
	if res.Throughput() <= 0 {
		t.Fatal("no throughput measured")
	}
}
