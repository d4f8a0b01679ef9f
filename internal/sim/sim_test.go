package sim

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// testProto is a scriptable protocol for exercising the MAC.
type testProto struct {
	node     *Node
	queue    []*Frame
	received []*Frame
	sent     []*Frame
	sentOK   []bool
	onRecv   func(f *Frame)
}

func (p *testProto) Init(n *Node) { p.node = n }
func (p *testProto) Receive(f *Frame) {
	p.received = append(p.received, f)
	if p.onRecv != nil {
		p.onRecv(f)
	}
}
func (p *testProto) Pull() *Frame {
	if len(p.queue) == 0 {
		return nil
	}
	f := p.queue[0]
	p.queue = p.queue[1:]
	return f
}
func (p *testProto) Sent(f *Frame, ok bool) {
	p.sent = append(p.sent, f)
	p.sentOK = append(p.sentOK, ok)
}

func (p *testProto) enqueue(f *Frame) {
	p.queue = append(p.queue, f)
	p.node.Wake()
}

// pair builds a 2-node simulator with the given delivery probability.
func pair(t *testing.T, p01 float64, cfg Config) (*Simulator, *testProto, *testProto) {
	t.Helper()
	topo := graph.New(2)
	topo.SetLink(0, 1, p01)
	s := New(topo, cfg)
	a, b := &testProto{}, &testProto{}
	s.Attach(0, a)
	s.Attach(1, b)
	return s, a, b
}

func TestAirTime(t *testing.T) {
	// 1500 bytes at 5.5 Mb/s: 192us PLCP + 12000 bits / 5.5 ≈ 2181.8us.
	got := AirTime(1500, Rate5_5)
	us := float64(1500*8) / 5.5
	want := PLCPOverhead + Time(us*float64(Microsecond))
	if got != want {
		t.Fatalf("AirTime = %v, want %v", got, want)
	}
	if AirTime(100, Rate11) >= AirTime(100, Rate1) {
		t.Fatal("higher rate should be faster")
	}
}

func TestBroadcastDelivery(t *testing.T) {
	s, a, b := pair(t, 1.0, DefaultConfig())
	a.enqueue(&Frame{From: 0, To: graph.Broadcast, Bytes: 1000})
	s.Run(Second)
	if len(b.received) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(b.received))
	}
	if len(a.sent) != 1 || !a.sentOK[0] {
		t.Fatalf("sender Sent callback: %v %v", a.sent, a.sentOK)
	}
	if s.Counters.Transmissions != 1 {
		t.Fatalf("transmissions = %d", s.Counters.Transmissions)
	}
	if s.Counters.MACAcks != 0 {
		t.Fatal("broadcast must not be MAC-acked")
	}
}

func TestBroadcastIsUnreliable(t *testing.T) {
	s, a, b := pair(t, 0.5, DefaultConfig())
	for i := 0; i < 2000; i++ {
		a.queue = append(a.queue, &Frame{From: 0, To: graph.Broadcast, Bytes: 100})
	}
	a.node.Wake()
	s.Run(100 * Second)
	got := float64(len(b.received)) / 2000
	if got < 0.45 || got > 0.55 {
		t.Fatalf("broadcast delivery ratio %.3f, want ≈0.5", got)
	}
	if len(a.sent) != 2000 {
		t.Fatalf("sender completed %d sends", len(a.sent))
	}
}

func TestUnicastRetransmitsUntilDelivered(t *testing.T) {
	s, a, b := pair(t, 0.5, DefaultConfig())
	for i := 0; i < 500; i++ {
		a.queue = append(a.queue, &Frame{From: 0, To: 1, Bytes: 200})
	}
	a.node.Wake()
	s.Run(200 * Second)
	delivered := len(b.received)
	okCount := 0
	for _, ok := range a.sentOK {
		if ok {
			okCount++
		}
	}
	// Data delivery per attempt is 0.5, so within 7 attempts the data gets
	// through with prob ≈ 1-0.5^7 ≈ 0.992.
	if delivered < 475 {
		t.Fatalf("only %d/500 unicast frames delivered", delivered)
	}
	// MAC success needs data AND ACK: per-attempt 0.25, within 7 attempts
	// ≈ 1-0.75^7 ≈ 0.867.
	if okCount < 400 || okCount > 470 {
		t.Fatalf("%d/500 sends reported ok, want ≈433 (ACK losses count)", okCount)
	}
	// Expected attempts per frame = (1-0.75^7)/0.25 ≈ 3.5 — the ETX=4 of a
	// p=0.5 bidirectional link, truncated by the retry limit.
	ratio := float64(s.Counters.Transmissions) / 500
	if ratio < 3.0 || ratio > 4.0 {
		t.Fatalf("tx/frame ratio %.2f, want ≈3.5 for bidirectional p=0.5", ratio)
	}
	if delivered != okCount {
		// ok can exceed deliveries only via duplicate delivery suppression
		// (data got through, ACK lost, retry delivered again). The receiver
		// dedups, so deliveries ≤ okCount is wrong — but ok==false frames
		// can still have been delivered (ACK losses), so allow a margin.
		if delivered < okCount {
			t.Fatalf("deliveries %d < ok %d: dedup broken?", delivered, okCount)
		}
	}
}

func TestUnicastFailureAfterRetryLimit(t *testing.T) {
	s, a, b := pair(t, 0.02, DefaultConfig())
	a.enqueue(&Frame{From: 0, To: 1, Bytes: 200})
	s.Run(10 * Second)
	if len(a.sent) != 1 {
		t.Fatalf("Sent callbacks: %d", len(a.sent))
	}
	if a.sentOK[0] && len(b.received) == 0 {
		t.Fatal("reported ok without delivery")
	}
	if !a.sentOK[0] && s.Counters.UnicastFailures != 1 {
		t.Fatalf("failures = %d", s.Counters.UnicastFailures)
	}
	if s.Counters.Transmissions > retryLimit {
		t.Fatalf("transmissions %d exceed retry limit", s.Counters.Transmissions)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int) {
		cfg := DefaultConfig()
		cfg.Seed = 7
		s, a, b := pair(t, 0.6, cfg)
		for i := 0; i < 200; i++ {
			a.queue = append(a.queue, &Frame{From: 0, To: 1, Bytes: 300})
		}
		a.node.Wake()
		end := s.Run(100 * Second)
		_ = end
		return s.Counters.Transmissions, len(b.received)
	}
	tx1, rx1 := run()
	tx2, rx2 := run()
	if tx1 != tx2 || rx1 != rx2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", tx1, rx1, tx2, rx2)
	}
}

func TestCarrierSenseSerializesNeighbors(t *testing.T) {
	// Two senders in range of each other and of a common receiver: carrier
	// sense should avoid almost all collisions.
	topo := graph.New(3)
	topo.SetLink(0, 2, 1)
	topo.SetLink(1, 2, 1)
	topo.SetLink(0, 1, 1)
	s := New(topo, DefaultConfig())
	a, b, c := &testProto{}, &testProto{}, &testProto{}
	s.Attach(0, a)
	s.Attach(1, b)
	s.Attach(2, c)
	for i := 0; i < 300; i++ {
		a.queue = append(a.queue, &Frame{From: 0, To: graph.Broadcast, Bytes: 500})
		b.queue = append(b.queue, &Frame{From: 1, To: graph.Broadcast, Bytes: 500})
	}
	a.node.Wake()
	b.node.Wake()
	s.Run(100 * Second)
	if len(c.received) < 570 {
		t.Fatalf("receiver decoded %d/600; carrier sense failing (collisions=%d)",
			len(c.received), s.Counters.Collisions)
	}
}

func TestHiddenTerminalsCollide(t *testing.T) {
	// Senders 0 and 1 cannot hear each other but both reach receiver 2:
	// without carrier sense protection their frames collide at 2.
	topo := graph.New(3)
	topo.SetLink(0, 2, 1)
	topo.SetLink(1, 2, 1)
	// no 0<->1 link
	cfg := DefaultConfig()
	cfg.CaptureEnabled = false
	s := New(topo, cfg)
	a, b, c := &testProto{}, &testProto{}, &testProto{}
	s.Attach(0, a)
	s.Attach(1, b)
	s.Attach(2, c)
	for i := 0; i < 300; i++ {
		a.queue = append(a.queue, &Frame{From: 0, To: graph.Broadcast, Bytes: 1400})
		b.queue = append(b.queue, &Frame{From: 1, To: graph.Broadcast, Bytes: 1400})
	}
	a.node.Wake()
	b.node.Wake()
	s.Run(100 * Second)
	if s.Counters.Collisions < 100 {
		t.Fatalf("hidden terminals produced only %d collisions", s.Counters.Collisions)
	}
	if len(c.received) > 500 {
		t.Fatalf("receiver decoded %d/600 despite hidden-terminal collisions", len(c.received))
	}
}

func TestSpatialReuseConcurrentTransmissions(t *testing.T) {
	// 4-hop chain 0-1-2-3-4 where hop 0->1 and hop 3->4 are out of carrier
	// sense range: both senders should be able to push at full rate
	// concurrently, so total goodput ≈ 2x a single link.
	topo := graph.New(5)
	topo.SetLink(0, 1, 1)
	topo.SetLink(1, 2, 1)
	topo.SetLink(2, 3, 1)
	topo.SetLink(3, 4, 1)
	s := New(topo, DefaultConfig())
	protos := make([]*testProto, 5)
	for i := range protos {
		protos[i] = &testProto{}
		s.Attach(graph.NodeID(i), protos[i])
	}
	const n = 400
	for i := 0; i < n; i++ {
		protos[0].queue = append(protos[0].queue, &Frame{From: 0, To: 1, Bytes: 1500})
		protos[3].queue = append(protos[3].queue, &Frame{From: 3, To: 4, Bytes: 1500})
	}
	protos[0].node.Wake()
	protos[3].node.Wake()
	// Time for n serialized frames on one link:
	perFrame := AirTime(1500, Rate5_5) + sifs + AirTime(macAckBytes, basicRate) + DIFS + 16*SlotTime
	serial := Time(n) * perFrame
	s.Run(serial + serial/10)
	// Both transfers must be nearly complete in the time one alone needs.
	if len(protos[1].received) < n*9/10 || len(protos[4].received) < n*9/10 {
		t.Fatalf("spatial reuse failed: deliveries %d and %d of %d each",
			len(protos[1].received), len(protos[4].received), n)
	}
}

func TestNoSpatialReuseWhenInRange(t *testing.T) {
	// Same workload, but the two links are within carrier sense range:
	// finishing both transfers must take nearly twice as long.
	topo := graph.New(4)
	topo.SetLink(0, 1, 1)
	topo.SetLink(2, 3, 1)
	topo.SetLink(0, 2, 0.3) // in sense range of each other
	s := New(topo, DefaultConfig())
	protos := make([]*testProto, 4)
	for i := range protos {
		protos[i] = &testProto{}
		s.Attach(graph.NodeID(i), protos[i])
	}
	const n = 200
	for i := 0; i < n; i++ {
		protos[0].queue = append(protos[0].queue, &Frame{From: 0, To: 1, Bytes: 1500})
		protos[2].queue = append(protos[2].queue, &Frame{From: 2, To: 3, Bytes: 1500})
	}
	protos[0].node.Wake()
	protos[2].node.Wake()
	perFrame := AirTime(1500, Rate5_5) + sifs + AirTime(macAckBytes, basicRate) + DIFS + 16*SlotTime
	serial := Time(n) * perFrame
	s.Run(serial + serial/10) // enough for one transfer, not two
	total := len(protos[1].received) + len(protos[3].received)
	if total > n+n/2 {
		t.Fatalf("carrier-sensed links overlapped too much: %d deliveries in serial time", total)
	}
}

func TestCaptureEffect(t *testing.T) {
	// Receiver 2 is very close to sender 0 (p=0.95) and far from
	// interferer 1 (p=0.1). With capture on, 0's frames survive overlap.
	topo := graph.New(3)
	topo.SetLink(0, 2, 0.95)
	topo.SetLink(1, 2, 0.1)
	// 0 and 1 are hidden from each other.
	deliveries := func(capture bool) int {
		cfg := DefaultConfig()
		cfg.CaptureEnabled = capture
		s := New(topo, cfg)
		a, b, c := &testProto{}, &testProto{}, &testProto{}
		s.Attach(0, a)
		s.Attach(1, b)
		s.Attach(2, c)
		for i := 0; i < 300; i++ {
			a.queue = append(a.queue, &Frame{From: 0, To: graph.Broadcast, Bytes: 1400})
			b.queue = append(b.queue, &Frame{From: 1, To: graph.Broadcast, Bytes: 1400})
		}
		a.node.Wake()
		b.node.Wake()
		s.Run(100 * Second)
		count := 0
		for _, f := range c.received {
			if f.From == 0 {
				count++
			}
		}
		return count
	}
	with := deliveries(true)
	without := deliveries(false)
	if with <= without {
		t.Fatalf("capture should increase strong-sender deliveries: with=%d without=%d", with, without)
	}
	if with < 250 {
		t.Fatalf("capture-on deliveries %d too low", with)
	}
}

func TestTimersAndCancel(t *testing.T) {
	topo := graph.New(1)
	s := New(topo, DefaultConfig())
	p := &testProto{}
	s.Attach(0, p)
	fired := 0
	ev1 := s.Node(0).After(Millisecond, func() { fired++ })
	ev2 := s.Node(0).After(2*Millisecond, func() { fired += 10 })
	ev2.Cancel()
	if !ev2.canceled || ev1.canceled {
		t.Fatal("cancel state wrong")
	}
	s.Run(Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if ev1.at != Millisecond {
		t.Fatalf("event time %v", ev1.at)
	}
}

func TestRunWhileStops(t *testing.T) {
	topo := graph.New(1)
	s := New(topo, DefaultConfig())
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(Time(i)*Millisecond, func() { count++ })
	}
	s.RunWhile(Second, func() bool { return count < 3 })
	if count != 3 {
		t.Fatalf("RunWhile processed %d events, want 3", count)
	}
}

func TestHalfDuplex(t *testing.T) {
	// A node transmitting cannot receive: two nodes blasting broadcasts at
	// each other simultaneously when hidden... they are in range, so CSMA
	// serializes them; instead test that a node's own tx overlapping an
	// incoming frame kills the reception. Construct: 0 -> 1 while 1 -> 0.
	// Force overlap by disabling carrier sense: each transmitter's sense
	// set, built lazily at its first frame, is preset to itself alone.
	topo := graph.New(2)
	topo.SetLink(0, 1, 0.9)
	s := New(topo, DefaultConfig())
	for id := range s.sense {
		s.sense[id] = graph.NewNodeSet(2)
		s.sense[id].Add(graph.NodeID(id)) // nobody senses anybody
	}
	a, b := &testProto{}, &testProto{}
	s.Attach(0, a)
	s.Attach(1, b)
	for i := 0; i < 100; i++ {
		a.queue = append(a.queue, &Frame{From: 0, To: graph.Broadcast, Bytes: 1400})
		b.queue = append(b.queue, &Frame{From: 1, To: graph.Broadcast, Bytes: 1400})
	}
	a.node.Wake()
	b.node.Wake()
	s.Run(10 * Second)
	// Both pump continuously and overlap nearly always; almost nothing
	// should get through.
	if len(a.received)+len(b.received) > 40 {
		t.Fatalf("half-duplex violated: %d receptions during mutual transmission",
			len(a.received)+len(b.received))
	}
}

func TestAirtimeAccounting(t *testing.T) {
	s, a, _ := pair(t, 1.0, DefaultConfig())
	a.enqueue(&Frame{From: 0, To: graph.Broadcast, Bytes: 1000})
	s.Run(Second)
	want := AirTime(1000, Rate5_5)
	if s.Counters.AirTime != want {
		t.Fatalf("air time %v, want %v", s.Counters.AirTime, want)
	}
	if s.Counters.TxByRate[Rate5_5] != 1 {
		t.Fatalf("TxByRate = %v", s.Counters.TxByRate)
	}
	if s.Counters.TxByNode[0] != 1 {
		t.Fatalf("TxByNode = %v", s.Counters.TxByNode)
	}
}

// TestRateCountersFoldAtRunEnd: the per-rate counters split AirTime and
// every transmission by bitrate exactly, and a second run adds to the
// first's figures instead of replacing them.
func TestRateCountersFoldAtRunEnd(t *testing.T) {
	s, a, _ := pair(t, 1.0, DefaultConfig())
	wantTx := map[Bitrate]int64{}
	wantAir := map[Bitrate]Time{}
	for run, rates := range [][]Bitrate{{Rate11, Rate1, Rate11, 0}, {Rate2, Rate11, Rate1}} {
		for _, r := range rates {
			a.enqueue(&Frame{From: 0, To: graph.Broadcast, Bytes: 700, Rate: r})
			if r == 0 {
				r = DefaultConfig().DataRate
			}
			wantTx[r]++
			wantAir[r] += AirTime(700, r)
		}
		s.Run(Time(run+1) * Second)
		if !reflect.DeepEqual(s.Counters.TxByRate, wantTx) || !reflect.DeepEqual(s.Counters.AirTimeByRate, wantAir) {
			t.Fatalf("after run %d: TxByRate %v AirTimeByRate %v, want %v and %v",
				run, s.Counters.TxByRate, s.Counters.AirTimeByRate, wantTx, wantAir)
		}
		var air Time
		for _, d := range s.Counters.AirTimeByRate {
			air += d
		}
		if air != s.Counters.AirTime {
			t.Fatalf("after run %d: per-rate air %v, AirTime %v", run, air, s.Counters.AirTime)
		}
	}
}

func TestFrameRateOverride(t *testing.T) {
	s, a, b := pair(t, 1.0, DefaultConfig())
	a.enqueue(&Frame{From: 0, To: graph.Broadcast, Bytes: 1000, Rate: Rate11})
	s.Run(Second)
	if len(b.received) != 1 {
		t.Fatal("frame not delivered")
	}
	if s.Counters.TxByRate[Rate11] != 1 {
		t.Fatalf("rate override ignored: %v", s.Counters.TxByRate)
	}
}

func TestRateAdjustAppliesToChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RateAdjust = func(p float64, r Bitrate) float64 {
		if r == Rate11 {
			return 0 // 11 Mb/s never delivers in this test
		}
		return p
	}
	s, a, b := pair(t, 1.0, cfg)
	for i := 0; i < 10; i++ {
		a.queue = append(a.queue, &Frame{From: 0, To: graph.Broadcast, Bytes: 100, Rate: Rate11})
	}
	a.node.Wake()
	s.Run(Second)
	if len(b.received) != 0 {
		t.Fatalf("RateAdjust ignored: %d deliveries", len(b.received))
	}
}
