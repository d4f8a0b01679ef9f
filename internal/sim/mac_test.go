package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestEventHeapOrdering(t *testing.T) {
	s := New(graph.New(1), DefaultConfig())
	times := []Time{5, 1, 3, 1, 9, 2}
	var out []Time
	var order []int
	for i, at := range times {
		s.After(at, func() { out = append(out, s.Now()); order = append(order, i) })
	}
	s.Run(Second)
	if len(out) != len(times) {
		t.Fatalf("fired %d of %d events", len(out), len(times))
	}
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("heap emitted out of order: %v", out)
		}
		if out[i] == out[i-1] && order[i] < order[i-1] {
			t.Fatalf("ties not broken by insertion order: %v %v", out, order)
		}
	}
}

func TestEventHeapQuickOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(graph.New(1), DefaultConfig())
		fired, ordered := 0, true
		prev := Time(-1)
		for _, v := range raw {
			s.After(Time(v), func() {
				fired++
				ordered = ordered && s.Now() == Time(v) && s.Now() >= prev
				prev = s.Now()
			})
		}
		s.Run(Time(1 << 20))
		return ordered && fired == len(raw) && s.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCanceledEventDoesNotFire(t *testing.T) {
	topo := graph.New(1)
	s := New(topo, DefaultConfig())
	fired := false
	ev := s.After(Millisecond, func() { fired = true })
	ev.Cancel()
	ev.Cancel() // double-cancel is a no-op
	s.Run(Second)
	if fired {
		t.Fatal("canceled event fired")
	}
	var nilEv *Event
	nilEv.Cancel() // nil-safe
}

func TestScheduleInPastClamps(t *testing.T) {
	topo := graph.New(1)
	s := New(topo, DefaultConfig())
	s.After(Millisecond, func() {
		// Scheduling with zero delay from inside an event must fire at the
		// current time, not before it.
		ev := s.After(0, func() {})
		if ev.at < s.Now() {
			t.Errorf("event scheduled in the past: %v < %v", ev.at, s.Now())
		}
	})
	s.Run(Second)
}

func TestBackoffFreezeAndResume(t *testing.T) {
	// A node that wants to transmit while another node holds the medium
	// must defer, then transmit after the medium clears — and its frame
	// must not overlap the first.
	topo := graph.New(3)
	topo.SetLink(0, 2, 1)
	topo.SetLink(1, 2, 1)
	topo.SetLink(0, 1, 1)
	s := New(topo, DefaultConfig())
	a, b, c := &testProto{}, &testProto{}, &testProto{}
	s.Attach(0, a)
	s.Attach(1, b)
	s.Attach(2, c)

	var starts []Time
	var ends []Time
	// Track transmissions via counters after the run instead: with both
	// frames delivered and zero collisions, the MAC must have serialized.
	a.enqueue(&Frame{From: 0, To: graph.Broadcast, Bytes: 1400})
	b.enqueue(&Frame{From: 1, To: graph.Broadcast, Bytes: 1400})
	s.Run(Second)
	_ = starts
	_ = ends
	if len(c.received) != 2 {
		t.Fatalf("receiver decoded %d/2 frames", len(c.received))
	}
	if s.Counters.Collisions != 0 {
		t.Fatalf("%d collisions despite carrier sense", s.Counters.Collisions)
	}
}

func TestPullNilPutsMACToSleep(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 1)
	s := New(topo, DefaultConfig())
	a, b := &testProto{}, &testProto{}
	s.Attach(0, a)
	s.Attach(1, b)
	// Wake with an empty queue: the MAC contends once, gets nil, sleeps.
	a.node.Wake()
	s.Run(Second)
	if s.Counters.Transmissions != 0 {
		t.Fatal("MAC transmitted without a frame")
	}
	// A later enqueue+wake works.
	a.enqueue(&Frame{From: 0, To: graph.Broadcast, Bytes: 100})
	s.Run(2 * Second)
	if len(b.received) != 1 {
		t.Fatal("frame after sleep not delivered")
	}
}

func TestDuplicateSuppressionOnOverhearing(t *testing.T) {
	// A retransmitted unicast frame must be delivered once to the
	// addressee and once to each overhearer, even across MAC retries.
	topo := graph.New(3)
	topo.SetDirected(0, 1, 1)   // data always arrives
	topo.SetDirected(1, 0, 0.3) // MAC ACKs usually lost: retries happen
	topo.SetDirected(0, 2, 1)   // overhearer hears everything
	cfg := DefaultConfig()
	cfg.Seed = 5
	s := New(topo, cfg)
	a, b, c := &testProto{}, &testProto{}, &testProto{}
	s.Attach(0, a)
	s.Attach(1, b)
	s.Attach(2, c)
	a.enqueue(&Frame{From: 0, To: 1, Bytes: 500})
	s.Run(5 * Second)
	if s.Counters.Transmissions < 2 {
		t.Skip("no retries happened with this seed")
	}
	if len(b.received) != 1 {
		t.Fatalf("addressee received %d copies", len(b.received))
	}
	if len(c.received) != 1 {
		t.Fatalf("overhearer received %d copies", len(c.received))
	}
}

func TestSenseRangeExtendsCarrierSense(t *testing.T) {
	// Two senders with no radio link but within SenseRange must serialize.
	topo := graph.New(3)
	topo.Pos[0] = graph.Position{X: 0}
	topo.Pos[1] = graph.Position{X: 50}
	topo.Pos[2] = graph.Position{X: 25}
	topo.SetLink(0, 2, 1)
	topo.SetLink(1, 2, 1)
	// no 0<->1 link: hidden by probability...
	cfg := DefaultConfig()
	cfg.SenseRange = 60 // ...but visible by geometry
	s := New(topo, cfg)
	a, b, c := &testProto{}, &testProto{}, &testProto{}
	s.Attach(0, a)
	s.Attach(1, b)
	s.Attach(2, c)
	for i := 0; i < 100; i++ {
		a.queue = append(a.queue, &Frame{From: 0, To: graph.Broadcast, Bytes: 1400})
		b.queue = append(b.queue, &Frame{From: 1, To: graph.Broadcast, Bytes: 1400})
	}
	a.node.Wake()
	b.node.Wake()
	s.Run(60 * Second)
	if len(c.received) < 190 {
		t.Fatalf("receiver decoded %d/200; geometric carrier sense not applied (collisions=%d)",
			len(c.received), s.Counters.Collisions)
	}
}

func TestFrameSizeDependentDelivery(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 0.5)
	cfg := DefaultConfig()
	cfg.RefFrameBytes = 1500
	s := New(topo, cfg)
	a, b := &testProto{}, &testProto{}
	s.Attach(0, a)
	s.Attach(1, b)
	// 150-byte frames (the floor) succeed with 0.5^0.1 ≈ 0.93.
	for i := 0; i < 1000; i++ {
		a.queue = append(a.queue, &Frame{From: 0, To: graph.Broadcast, Bytes: 150})
	}
	a.node.Wake()
	s.Run(200 * Second)
	frac := float64(len(b.received)) / 1000
	if frac < 0.88 || frac > 0.98 {
		t.Fatalf("small-frame delivery %.3f, want ≈0.93", frac)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		1500 * Millisecond: "1.500s",
		2 * Millisecond:    "2.000ms",
		30 * Microsecond:   "30.0us",
		5 * Nanosecond:     "5ns",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
	if Rate5_5.String() != "5.5Mbps" || Rate11.String() != "11Mbps" {
		t.Error("bitrate strings wrong")
	}
}

func TestAirTimePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	AirTime(100, 0)
}

func TestRandDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) int64 {
		cfg := DefaultConfig()
		cfg.Seed = seed
		s := New(graph.New(1), cfg)
		return s.rng.Int63()
	}
	if draw(1) != draw(1) {
		t.Fatal("same seed differs")
	}
	if draw(1) == draw(2) {
		t.Fatal("different seeds agree")
	}
}

// TestDupWindowBoundsSeenMemory checks that the MAC's duplicate-suppression
// memory is the last `window` keys and nothing more: a sender's latest key
// is a duplicate while fewer than window keys were recorded after it and is
// re-accepted once they were, and the table holds one entry per sender heard
// however many keys pass through it.
func TestDupWindowBoundsSeenMemory(t *testing.T) {
	const window = 8
	var tab dupTable
	if tab.duplicate(7, 1, window) {
		t.Fatal("first sight of a key reported as duplicate")
	}
	// Seven more keys from other senders: (7, 1) is the oldest of eight.
	for k := uint64(1); k <= 7; k++ {
		if tab.duplicate(graph.NodeID(k%3), k, window) {
			t.Fatalf("fresh key %d reported as duplicate", k)
		}
	}
	if !tab.duplicate(7, 1, window) {
		t.Fatal("key inside the window forgotten")
	}
	// A duplicate records nothing; one more fresh key pushes (7, 1) out.
	tab.duplicate(0, 8, window)
	if tab.duplicate(7, 1, window) {
		t.Fatal("key outside the window still remembered")
	}
	for k := uint64(9); k <= 1000; k++ {
		tab.duplicate(graph.NodeID(k%3), k, window)
	}
	if len(tab.senders) != 4 {
		t.Fatalf("table holds %d entries for 4 senders heard", len(tab.senders))
	}
}

// TestStackRoutesTraffic checks the protocol stack: both layers see every
// reception, the first layer wins transmission opportunities, and Sent is
// routed to the layer that supplied the frame.
func TestStackRoutesTraffic(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 1.0)
	s := New(topo, DefaultConfig())

	hi := &scriptedProto{frames: []*Frame{{To: graph.Broadcast, Bytes: 100, Payload: "hi"}}}
	lo := &scriptedProto{frames: []*Frame{{To: graph.Broadcast, Bytes: 100, Payload: "lo"}}}
	s.Attach(0, NewStack(hi, lo))
	sink := &scriptedProto{}
	s.Attach(1, sink)

	s.Node(0).Wake()
	s.Run(Second)

	if len(hi.sent) != 1 || hi.sent[0].Payload != "hi" {
		t.Fatalf("high layer Sent not routed: %+v", hi.sent)
	}
	if len(lo.sent) != 1 || lo.sent[0].Payload != "lo" {
		t.Fatalf("low layer Sent not routed: %+v", lo.sent)
	}
	// The high layer's frame must have gone out first.
	if len(sink.received) != 2 || sink.received[0].Payload != "hi" || sink.received[1].Payload != "lo" {
		t.Fatalf("stack priority violated at receiver: %+v", sink.received)
	}
	// Receptions fan out to every layer of a stacked receiver.
	s2 := New(topo, DefaultConfig())
	a, b := &scriptedProto{}, &scriptedProto{}
	s2.Attach(1, NewStack(a, b))
	src := &scriptedProto{frames: []*Frame{{To: graph.Broadcast, Bytes: 100, Payload: "x"}}}
	s2.Attach(0, src)
	s2.Node(0).Wake()
	s2.Run(Second)
	if len(a.received) != 1 || len(b.received) != 1 {
		t.Fatalf("stacked receiver did not fan out: a=%d b=%d", len(a.received), len(b.received))
	}
}

// scriptedProto transmits a fixed list of frames and records what happens.
type scriptedProto struct {
	node     *Node
	frames   []*Frame
	sent     []*Frame
	received []*Frame
}

func (p *scriptedProto) Init(n *Node)     { p.node = n }
func (p *scriptedProto) Receive(f *Frame) { p.received = append(p.received, f) }
func (p *scriptedProto) Sent(f *Frame, ok bool) {
	p.sent = append(p.sent, f)
	if len(p.frames) > 0 {
		p.node.Wake()
	}
}
func (p *scriptedProto) Pull() *Frame {
	if len(p.frames) == 0 {
		return nil
	}
	f := p.frames[0]
	p.frames = p.frames[1:]
	return f
}

// TestContentionCycleAllocatesNothing walks one node through the cycle that
// dominates large runs — medium clears, DIFS armed, DIFS expires, backoff
// armed, medium busy again, backoff frozen — and requires zero allocations:
// the MAC's timers are its own — two Event values re-armed in place and a
// link in the DIFS lane.
func TestContentionCycleAllocatesNothing(t *testing.T) {
	s, _, _ := pair(t, 1, DefaultConfig())
	m := s.Node(0).mac
	m.setState(macContending)
	m.backlogged = true
	m.backoffSlots, m.backoffArmed = 1000, true // never runs out: each freeze credits 0 slots
	// The sense set of a transmission only node 0 hears.
	heard := graph.NewNodeSet(2)
	heard.Add(0)
	s.carrierStart(heard)
	allocs := testing.AllocsPerRun(200, func() {
		s.carrierEnd(heard) // medium idle: armDIFS
		if !m.difsPending() || s.Pending() != 1 {
			t.Fatal("a clear medium did not start the DIFS wait")
		}
		s.Run(s.Now() + DIFS)
		if !m.backoffTimer.pending() {
			t.Fatal("DIFS expiry did not arm the backoff timer")
		}
		s.carrierStart(heard) // freeze
		if m.backoffTimer.pending() || m.difsPending() || s.Pending() != 0 {
			t.Fatal("freeze left a timer queued")
		}
	})
	if allocs != 0 {
		t.Fatalf("contention cycle allocates %v objects per round, want 0", allocs)
	}
}

// TestWakeAfterAllocatesNothing is the twin for the wake FIFO: once a node's
// FIFO has grown to its working depth, requesting and firing wakes allocates
// nothing — whether the FIFO drains between bursts or, as on a node that
// always has an LSA waiting for a ride, never empties (the live keys slide
// down the slice instead of growing it).
func TestWakeAfterAllocatesNothing(t *testing.T) {
	s, a, _ := pair(t, 1, DefaultConfig())
	n := a.node
	burst := func() {
		for i := 0; i < 8; i++ {
			n.WakeAfter(Time(i) * Millisecond)
		}
		s.Run(s.Now() + Second)
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after the burst drained", s.Pending())
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("a draining burst of wakes allocates %v objects, want 0", allocs)
	}

	for i := 1; i <= 6; i++ {
		n.WakeAfter(Time(i) * Millisecond)
	}
	step := func() { // one wake requested, one fires, six stay queued
		n.WakeAfter(6*Millisecond + 500*Microsecond)
		s.Run(s.Now() + Millisecond)
		if got := len(n.wakes) - n.wakeHead; got != 6 {
			t.Fatalf("%d keys queued, want 6", got)
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Errorf("a standing FIFO allocates %v objects per wake, want 0", allocs)
	}
	if cap(n.wakes) > 32 {
		t.Errorf("a FIFO six keys deep grew to cap %d", cap(n.wakes))
	}
}

// idleProto sends the one frame it holds, once per refill, and records
// nothing — so a transmission's own allocations can be counted.
type idleProto struct {
	frame *Frame
	armed bool
}

func (p *idleProto) Init(*Node)        {}
func (p *idleProto) Receive(*Frame)    {}
func (p *idleProto) Sent(*Frame, bool) {}
func (p *idleProto) Pull() *Frame {
	if !p.armed {
		return nil
	}
	p.armed = false
	return p.frame
}

// TestBroadcastTransmissionAllocatesNoEvent sends one broadcast frame
// through contention, the air and reception: the only allocations are the
// transmission (which embeds the event that ends it) and that event's
// closure. Before owned events it was up to seven: an Event and a
// method-value closure for each of DIFS and (when the draw is not zero)
// backoff, and three for the transmission.
func TestBroadcastTransmissionAllocatesNoEvent(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 1)
	s := New(topo, DefaultConfig())
	p := &idleProto{frame: &Frame{To: graph.Broadcast, Bytes: 400}}
	s.Attach(0, p)
	s.Attach(1, &idleProto{})
	allocs := testing.AllocsPerRun(200, func() {
		p.armed = true
		s.Node(0).Wake()
		s.Run(s.Now() + Second)
		if p.armed || s.Pending() != 0 {
			t.Fatal("frame not sent or timers left behind")
		}
	})
	if allocs > 2 {
		t.Fatalf("a broadcast transmission allocates %v objects, want 2 (transmission + end closure)", allocs)
	}
	if s.Counters.Deliveries == 0 {
		t.Fatal("nothing was delivered: the test exercises no reception")
	}
}

// TestSilenceCancelsOwnedTimers: FailNode with all three MAC timers pending
// takes exactly those three out of the queue, and the revived MAC arms them
// cleanly again.
func TestSilenceCancelsOwnedTimers(t *testing.T) {
	s, a, b := pair(t, 1, DefaultConfig())
	other := s.After(Millisecond, func() {})
	m := s.Node(0).mac
	s.armDIFS(m)
	s.armAt(&m.backoffTimer, 3*SlotTime)
	s.armAt(&m.ackTimer, Millisecond)
	before := s.Pending()
	s.FailNode(0)
	if got := s.Pending(); got != before-3 {
		t.Fatalf("Pending %d -> %d across silence, want down by 3", before, got)
	}
	if m.difsPending() || m.backoffTimer.pending() || m.ackTimer.pending() || other.canceled {
		t.Fatal("silence left a MAC timer queued or cancelled a stranger")
	}
	s.Run(10 * Millisecond) // nothing of node 0's may fire
	s.RecoverNode(0)
	a.enqueue(&Frame{To: 1, Bytes: 300})
	s.Run(Second)
	if len(b.received) != 1 || len(a.sent) != 1 || !a.sentOK[0] {
		t.Fatalf("revived MAC did not complete a unicast: received=%d sent=%d", len(b.received), len(a.sent))
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after the run", s.Pending())
	}
}
