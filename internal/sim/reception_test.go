package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// TestLinkProbMemo drives the per-link lookup the way endTransmission does —
// the transmitter's memo, two slots per out-edge, the frame's effective
// size — over random rates and sizes while the live topology's edges move,
// change and come and go under it, and requires the bits of a direct
// adjustProb call every time: the memo is a cache, never a second opinion.
func TestLinkProbMemo(t *testing.T) {
	const n = 12
	sizes := []int{0, 1, 14, 149, 150, 151, 400, 1499, 1500, 1501, 3000}
	rates := []Bitrate{Rate1, Rate2, Rate5_5, Rate11}
	for _, adjust := range []func(float64, Bitrate) float64{nil, AdaptRateScale(graph.RateScale)} {
		rng := rand.New(rand.NewSource(19))
		topo := graph.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(3) > 0 {
					topo.SetDirected(graph.NodeID(i), graph.NodeID(j), rng.Float64())
				}
			}
		}
		cfg := DefaultConfig()
		cfg.RefFrameBytes = 1500
		cfg.RateAdjust = adjust
		s := New(topo, cfg)
		isolated := graph.NodeID(-1) // at most one node down at a time
		hits, lookups := 0, 0
		for round := 0; round < 4000; round++ {
			a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			switch rng.Intn(40) { // most rounds find the topology as the last one left it
			case 0:
				topo.SetDirected(a, b, rng.Float64()) // new edge, or a new probability on an old one
			case 1:
				topo.SetDirected(a, b, 0) // the rest of the row shifts down a slot
			case 2:
				topo.SetDirected(a, b, float64(rng.Intn(2))) // the endpoints scaling leaves alone
			case 3:
				if isolated < 0 {
					topo.Isolate(a)
					isolated = a
				} else {
					topo.Restore(isolated)
					isolated = -1
				}
			case 4:
				topo.Degrade(0.02)
			}
			from := graph.NodeID(rng.Intn(n))
			rate, bytes := rates[rng.Intn(len(rates))], sizes[rng.Intn(len(sizes))]
			if rng.Intn(3) > 0 {
				rate, bytes = Rate5_5, 37 // the common case: one control-frame size at the data rate
			}
			out := topo.OutEdges(from)
			memo := s.probRow(from, len(out))
			eff := s.effectiveBytes(bytes)
			for k, e := range out {
				if memo.recent[k].holds(e.P, rate, eff) || memo.older != nil && memo.older[k].holds(e.P, rate, eff) {
					hits++
				}
				lookups++
				got, want := s.linkProb(memo, k, e.P, rate, eff), s.adjustProb(e.P, rate, bytes)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d, link %d->%d p=%v rate=%v bytes=%d: memo %v, adjustProb %v",
						round, from, e.Node, e.P, rate, bytes, got, want)
				}
			}
		}
		if hits < lookups/4 || hits > lookups*9/10 {
			t.Errorf("RateAdjust set=%v: %d of %d lookups found their key in the slot; the test wants both hits and misses",
				adjust != nil, hits, lookups)
		}
	}
	// Without a length model and without a rate mapping the probability is
	// the topology's, whatever the slot holds.
	s := New(graph.New(2), DefaultConfig())
	stale := &linkMemo{recent: []probSlot{{pRef: 0.5, rate: Rate11, val: 0.9}}}
	if got := s.linkProb(stale, 0, 0.5, Rate11, s.effectiveBytes(700)); got != 0.5 {
		t.Errorf("size-independent channel: linkProb = %v, want the reference 0.5", got)
	}
}

// rxLog is a telemetry sink that keeps every event.
type rxLog []telemetry.Event

func (l *rxLog) Emit(ev telemetry.Event) { *l = append(*l, ev) }

// TestHeardReceiverIsNotHandedTheFrame sends the same broadcasts over lossy
// links twice, once with node 1 in every frame's Heard set: node 1's
// receptions still draw from the channel, count in Counters.Deliveries and
// emit KindRx — the event stream and the counters are the same event for
// event — but its protocol is handed none of them, while the other
// receivers get exactly what they got without the set.
func TestHeardReceiverIsNotHandedTheFrame(t *testing.T) {
	type run struct {
		events   rxLog
		counters Counters
		received []int
	}
	send := func(heard graph.NodeSet) run {
		topo := graph.New(4)
		topo.SetLink(0, 1, 0.7)
		topo.SetLink(0, 2, 0.6)
		topo.SetLink(0, 3, 0.8)
		s := New(topo, DefaultConfig())
		var r run
		s.Telem = &r.events
		protos := make([]*testProto, 4)
		for i := range protos {
			protos[i] = &testProto{}
			s.Attach(graph.NodeID(i), protos[i])
		}
		for i := 0; i < 200; i++ {
			protos[0].queue = append(protos[0].queue, &Frame{To: graph.Broadcast, Bytes: 1000, Heard: heard})
		}
		protos[0].node.Wake()
		s.Run(10 * Second)
		r.counters = s.Counters
		for _, p := range protos {
			r.received = append(r.received, len(p.received))
		}
		return r
	}
	heard := graph.NewNodeSet(4)
	heard.Add(1)
	plain, skip := send(nil), send(heard)

	if !reflect.DeepEqual(plain.events, skip.events) {
		t.Fatalf("the event streams differ: %d events, %d with node 1 in Heard", len(plain.events), len(skip.events))
	}
	if !reflect.DeepEqual(plain.counters, skip.counters) {
		t.Fatalf("counters differ:\n without %+v\n with    %+v", plain.counters, skip.counters)
	}
	rx := 0
	for _, ev := range skip.events {
		if ev.Kind == telemetry.KindRx && ev.Node == 1 {
			rx++
		}
	}
	if rx == 0 || rx != plain.received[1] || rx == 200 {
		t.Fatalf("node 1 decoded %d frames with the set and was handed %d without it: want the same count, some but not all of 200", rx, plain.received[1])
	}
	if skip.received[1] != 0 {
		t.Errorf("node 1 was handed %d frames it had heard", skip.received[1])
	}
	for id := 2; id < 4; id++ {
		if skip.received[id] != plain.received[id] {
			t.Errorf("node %d was handed %d frames, %d without the set", id, skip.received[id], plain.received[id])
		}
	}
	if want := int64(plain.received[1] + plain.received[2] + plain.received[3]); skip.counters.Deliveries != want {
		t.Errorf("Deliveries = %d, want the %d decodes", skip.counters.Deliveries, want)
	}
}

// TestCarrierCountsFollowListeners crashes and revives nodes while frames —
// theirs and their neighbors' — are on the air, and checks the carrier
// invariant at every step: a listening MAC's busy count is the brute-force
// count of the transmissions on the air it can sense, a MAC listens exactly
// while it contends, and no MAC outside the listening set has a DIFS or a
// backoff pending — so a carrier edge that passes it by had nothing to do.
func TestCarrierCountsFollowListeners(t *testing.T) {
	topo := graph.LossyChain(6, 15, 30)
	cfg := DefaultConfig()
	cfg.SenseRange = 40
	s := New(topo, cfg)
	protos := make([]*chatterProto, topo.N())
	for i := range protos {
		protos[i] = &chatterProto{}
		s.Attach(graph.NodeID(i), protos[i])
	}
	check := func(step int) {
		t.Helper()
		for i := range s.macs {
			id, m := graph.NodeID(i), &s.macs[i]
			if got, want := s.listening.Has(id), m.state == macContending; got != want {
				t.Fatalf("step %d: node %d listening=%v in state %d", step, i, got, m.state)
			}
			if !s.listening.Has(id) {
				if m.difsPending() || m.backoffTimer.pending() {
					t.Fatalf("step %d: node %d is not listening with difs=%v backoff=%v pending",
						step, i, m.difsPending(), m.backoffTimer.pending())
				}
				continue
			}
			want := int32(0)
			for _, tx := range s.active {
				if s.senseOf(tx.from.id).Has(id) {
					want++
				}
			}
			if s.busy[i] != want {
				t.Fatalf("step %d: busy[%d] = %d with %d sensed transmissions on the air", step, i, s.busy[i], want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	midFlight, listeners := 0, 0
	for step := 0; step < 400; step++ {
		s.Run(s.Now() + Time(rng.Intn(900))*Microsecond)
		check(step)
		id := graph.NodeID(rng.Intn(topo.N()))
		if s.sensedBy(id) > 0 {
			midFlight++
		}
		if s.listening.Has(id) {
			listeners++
		}
		if s.Node(id).Failed() {
			s.RecoverNode(id)
		} else {
			s.FailNode(id)
		}
		check(step)
	}
	if midFlight < 100 || listeners < 50 {
		t.Fatalf("of 400 crashes and recoveries %d hit a node sensing a frame and %d a listening one", midFlight, listeners)
	}
	for i := range protos {
		s.FailNode(graph.NodeID(i)) // nobody starts another frame
	}
	s.Run(s.Now() + Second)
	check(400)
	if len(s.active) != 0 {
		t.Fatalf("%d transmissions still on the air", len(s.active))
	}
	for _, word := range s.listening {
		if word != 0 {
			t.Fatalf("listening = %x with every node down", s.listening)
		}
	}
}

// TestRelevantRowsAfterRestore records a known violation this package does
// not fix yet: relevantTo builds a transmitter's relevance row at its first
// transmission and never again, so a row built while a neighbor was isolated
// lacks that neighbor after Restore. Here 0 and 2 are hidden from each other
// around receiver 1 and capture is off, so every overlapping pair of frames
// must collide at 1 — but node 0's row was built while 2 was down, node 0's
// frames never see node 2's, and 1 decodes them.
func TestRelevantRowsAfterRestore(t *testing.T) {
	t.Skip("ROADMAP item 2(c): the fix moves the churn goldens, so it waits for the telemetry checker that can call the new digests correct")
	delivered := func(isolate bool) int {
		topo := graph.New(3)
		topo.SetLink(0, 1, 1)
		topo.SetLink(1, 2, 1)
		cfg := DefaultConfig()
		cfg.CaptureEnabled = false
		s := New(topo, cfg)
		a, b, c := &testProto{}, &testProto{}, &testProto{}
		s.Attach(0, a)
		s.Attach(1, b)
		s.Attach(2, c)
		if isolate {
			topo.Isolate(2)
		}
		a.enqueue(&Frame{To: graph.Broadcast, Bytes: 1400}) // builds node 0's row
		s.Run(Second)
		if isolate {
			topo.Restore(2)
		}
		before := len(b.received)
		for i := 0; i < 200; i++ {
			a.queue = append(a.queue, &Frame{To: graph.Broadcast, Bytes: 1400})
			c.queue = append(c.queue, &Frame{To: graph.Broadcast, Bytes: 1400})
		}
		a.node.Wake()
		c.node.Wake()
		s.Run(60 * Second)
		return len(b.received) - before
	}
	if got, want := delivered(true), delivered(false); got != want {
		t.Fatalf("node 1 decoded %d of 400 frames after node 2 came back, %d when it never left", got, want)
	}
}

// TestEventAndTransmissionSizeClasses pins the two objects every timer and
// every frame on the air allocate to their allocator size classes (32 and
// 112 bytes), and Frame, which every protocol message embeds, to the
// 128-byte class. alloc_b_per_rx is bounded at 3 %: three words more in
// Event moved it 6 % on soak-churn (PERFORMANCE.md, "the reception path"),
// which is why the DIFS lane links through mac and the wake FIFO keeps its
// keys in Node, and why Frame.isMACAck sits in the padding after FlowID.
func TestEventAndTransmissionSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 32 {
		t.Errorf("sizeof(Event) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(transmission{}); got <= 96 || got > 112 {
		t.Errorf("sizeof(transmission) = %d, want within the 112-byte size class (97..112)", got)
	}
	if got := unsafe.Sizeof(Frame{}); got != 128 {
		t.Errorf("sizeof(Frame) = %d, want 128", got)
	}
}
