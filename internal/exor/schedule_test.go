package exor

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

func TestBatchMapMerge(t *testing.T) {
	// Receiving a packet must merge batch maps element-wise toward lower
	// (better) priorities and record the sender and self as holders.
	topo := graph.New(3)
	topo.SetLink(0, 1, 1)
	topo.SetLink(1, 2, 1)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	n := NewNode(smallCfg(4), oracle)
	s.Attach(1, n)

	prio := []graph.NodeID{2, 1, 0} // dst=2, fwd=1, src=0
	bmap := []uint8{2, 0, 2, 2}     // src claims pkt 1 already at dst
	m := &DataMsg{
		Flow: 1, Src: 0, Dst: 2,
		Batch: 0, K: 4, TotalBatches: 1,
		PktIdx: 0, FragRemaining: 0, SenderPrio: 2,
		BMap: bmap, Prio: prio,
		Payload: make([]byte, 10),
	}
	n.receiveData(m)
	f := n.flows[1]
	if f.myPrio != 1 {
		t.Fatalf("myPrio = %d", f.myPrio)
	}
	if !f.have[0] || f.payload[0] == nil {
		t.Fatal("payload not stored")
	}
	// Packet 0: we hold it now, so our own priority (1) beats the
	// sender's (2).
	if f.bmap[0] != 1 {
		t.Fatalf("bmap[0] = %d, want 1 (self)", f.bmap[0])
	}
	// Packet 1: the sender's map says the destination (0 == highest
	// priority index) already has it.
	if f.bmap[1] != 0 {
		t.Fatalf("bmap[1] = %d, want 0 (dst)", f.bmap[1])
	}
	// A later packet with a worse map must not regress ours.
	worse := *m
	worse.PktIdx = 2
	worse.BMap = []uint8{2, 2, 2, 2}
	n.receiveData(&worse)
	if f.bmap[1] != 0 {
		t.Fatal("merge regressed bmap[1]")
	}
	if f.bmap[2] != 1 {
		t.Fatalf("bmap[2] = %d after receiving pkt 2", f.bmap[2])
	}
}

func TestEligibilityRespectsPriority(t *testing.T) {
	// A forwarder only schedules packets for which it is the best known
	// holder.
	topo := graph.New(3)
	topo.SetLink(0, 1, 1)
	topo.SetLink(1, 2, 1)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	n := NewNode(smallCfg(3), oracle)
	s.Attach(1, n)
	prio := []graph.NodeID{2, 1, 0}
	for idx := 0; idx < 3; idx++ {
		n.receiveData(&DataMsg{
			Flow: 1, Src: 0, Dst: 2, Batch: 0, K: 3, TotalBatches: 1,
			PktIdx: idx, FragRemaining: 2 - idx, SenderPrio: 2,
			BMap: []uint8{packet3(), packet3(), packet3()}, Prio: prio,
			Payload: make([]byte, 10),
		})
	}
	f := n.flows[1]
	// Mark packet 1 as already held by the destination.
	f.bmap[1] = 0
	n.takeTurn(f)
	if !f.inTurn {
		t.Fatal("turn not taken")
	}
	if len(f.fragQueue) != 2 {
		t.Fatalf("fragment has %d packets, want 2 (pkt 1 excluded)", len(f.fragQueue))
	}
	for _, idx := range f.fragQueue {
		if idx == 1 {
			t.Fatal("fragment includes a packet the destination already holds")
		}
	}
}

func packet3() uint8 { return 2 } // src prio in a 3-node list

// TestArmTurnAllocatesNothing pins the turn timer and the watchdog as timers
// their flow owns (sim.Node.NewTimer): every data packet a participant hears
// restarts both, and a restart makes no Event and no closure.
func TestArmTurnAllocatesNothing(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 1)
	topo.SetLink(1, 2, 1)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	n := NewNode(smallCfg(3), oracle)
	s.Attach(1, n)
	n.receiveData(&DataMsg{
		Flow: 1, Src: 0, Dst: 2, Batch: 0, K: 3, TotalBatches: 1,
		PktIdx: 0, FragRemaining: 2, SenderPrio: 2,
		BMap: []uint8{packet3(), packet3(), packet3()}, Prio: []graph.NodeID{2, 1, 0},
		Payload: make([]byte, 10),
	})
	f := n.flows[1]
	turn, watchdog := f.turnTimer, f.watchdog
	if turn == nil || watchdog == nil {
		t.Fatal("hearing a data packet armed no timers")
	}
	if allocs := testing.AllocsPerRun(100, func() { n.armTurn(f, 2, 1) }); allocs != 0 {
		t.Fatalf("restarting the turn timer and the watchdog allocates %v objects, want 0", allocs)
	}
	if f.turnTimer != turn || f.watchdog != watchdog || s.Pending() != 2 {
		t.Fatalf("timers replaced instead of restarted: %d events pending, want 2", s.Pending())
	}
}

func TestDataFrameChargesBatchMap(t *testing.T) {
	// Every ExOR data frame pays for its batch map and forwarder list on
	// the air: bigger K means bigger frames.
	topo := graph.New(2)
	topo.SetLink(0, 1, 1)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	small := NewNode(smallCfg(8), oracle)
	s.Attach(0, small)
	file := flow.NewFile(8*1500, 1500, 1)
	if err := small.StartFlow(1, 1, file, nil); err != nil {
		t.Fatal(err)
	}
	fr := small.Pull()
	if fr == nil {
		t.Fatal("no frame")
	}
	m := fr.Payload.(*DataMsg)
	if len(m.BMap) != 8 {
		t.Fatalf("batch map has %d entries", len(m.BMap))
	}
	if fr.Bytes <= 1500+8 {
		t.Fatalf("frame %d bytes does not include header overhead", fr.Bytes)
	}
}

// sourceFlow starts a K-packet ExOR flow 0 → 1 and returns the source node
// and its flow state, mid-turn.
func sourceFlow(t *testing.T, k int) (*Node, *exorFlow) {
	t.Helper()
	topo := graph.New(2)
	topo.SetLink(0, 1, 1)
	s := sim.New(topo, sim.DefaultConfig())
	oracle := flow.NewOracle(topo, routing.ETXOptions{Threshold: 0.15, AckAware: true})
	n := NewNode(smallCfg(k), oracle)
	s.Attach(0, n)
	if err := n.StartFlow(1, 1, flow.NewFile(k*1500, 1500, 1), nil); err != nil {
		t.Fatal(err)
	}
	return n, n.flows[1]
}

func TestDataSendAllocatesNothing(t *testing.T) {
	// Once warm, a data frame pulled and handed back allocates nothing: the
	// message, its frame and its batch map come off the node's free list; a
	// new turn's fragment reuses the flow's buffer.
	const k = 32
	n, f := sourceFlow(t, k)
	one := []int{0}
	allocs := testing.AllocsPerRun(100, func() {
		f.inTurn, f.fragQueue = true, one
		fr := n.Pull()
		if fr == nil {
			t.Fatal("a source in its turn sent nothing")
		}
		n.Sent(fr, true)
	})
	if allocs != 0 {
		t.Errorf("a data send allocates %v objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { n.takeTurn(f) }); allocs != 0 {
		t.Errorf("computing a turn's fragment allocates %v objects, want 0", allocs)
	}
	if len(f.fragQueue) != k {
		t.Fatalf("fragment has %d packets, want %d", len(f.fragQueue), k)
	}
}

func TestReleasedMessageIsPoisoned(t *testing.T) {
	// Sent poisons the message it hands back, keeping only its map's
	// storage, and the next send reuses it: a reader that kept the frame
	// past Sent finds no flow, no map, no list and no payload.
	n, _ := sourceFlow(t, 8)
	fr := n.Pull()
	m := fr.Payload.(*DataMsg)
	storage := &m.BMap[0]
	n.Sent(fr, true)
	want := DataMsg{
		Flow: releasedFlow, Src: -1, Dst: -1, Batch: -1, K: -1, BatchBase: -1, TotalBatches: -1,
		PktIdx: -1, FragRemaining: -1, SenderPrio: -1, BMap: m.BMap,
	}
	if !reflect.DeepEqual(*m, want) || len(m.BMap) != 0 {
		t.Fatalf("released message flow %d batch %d packet %d map %v, %d payload bytes; want sentinels, no map, no payload",
			m.Flow, m.Batch, m.PktIdx, m.BMap, len(m.Payload))
	}
	if g := n.Pull(); g != fr || g.Payload != m || m.Flow != 1 || &m.BMap[0] != storage {
		t.Fatal("the next send did not reuse the released message and its map")
	}
}

func TestSentBatchMapIsACopy(t *testing.T) {
	// Frames not yet handed back own their batch maps: none aliases the
	// flow's live map or another such frame's.
	n, f := sourceFlow(t, 8)
	first := n.Pull().Payload.(*DataMsg)
	want := slices.Clone(first.BMap)
	for i := range f.bmap {
		f.bmap[i] = 0xEE
	}
	if !slices.Equal(first.BMap, want) {
		t.Fatalf("writing the flow's map changed a sent frame's: %v, want %v", first.BMap, want)
	}
	second := n.Pull().Payload.(*DataMsg)
	next := slices.Clone(second.BMap)
	for i := range first.BMap {
		first.BMap[i] = 0xDD
	}
	_ = append(first.BMap, 1, 2, 3)
	if !slices.Equal(second.BMap, next) {
		t.Fatalf("writing one frame's map changed another's: %v, want %v", second.BMap, next)
	}
	if !slices.Equal(f.bmap, slices.Repeat([]uint8{0xEE}, 8)) {
		t.Fatalf("writing a frame's map changed the flow's: %v", f.bmap)
	}
}

func TestWatchdogRecoversFromTotalSilence(t *testing.T) {
	// If every handoff packet is lost, the watchdog must still push the
	// transfer forward.
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.35)
	topo.SetLink(1, 2, 0.35)
	file := flow.NewFile(8*1500, 1500, 2)
	res, _, _ := runExOR(t, topo, smallCfg(8), sim.DefaultConfig(), 0, 2, file, 900*sim.Second)
	if !res.Completed {
		t.Fatalf("transfer over terrible links never completed: %v", res)
	}
}
