package sim

import (
	"testing"

	"repro/internal/graph"
)

// mixedSender alternates unicast frames to a fixed peer (MAC ACKs, retries)
// with broadcasts, for ever.
type mixedSender struct {
	node *Node
	to   graph.NodeID
	n    int
}

func (p *mixedSender) Init(n *Node)   { p.node = n; n.Wake() }
func (p *mixedSender) Receive(*Frame) {}
func (p *mixedSender) Sent(*Frame, bool) {
	p.node.Wake()
}
func (p *mixedSender) Pull() *Frame {
	p.n++
	if p.n%3 == 0 {
		return &Frame{To: graph.Broadcast, Bytes: 200 + p.n%7*150}
	}
	return &Frame{To: p.to, Bytes: 200 + p.n%5*250}
}

// checkTransmissionRefs recounts who holds each transmission — s.active and
// the overlap lists of what is on the air — and compares with refs; what is
// on the free list must be held by nobody, cleared, and listed once. The MAC
// ACK records seen on the air are collected in acks; a free one must be
// cleared, idle and listed once too.
func checkTransmissionRefs(t *testing.T, s *Simulator, known map[*transmission]bool, acks map[*macAck]bool) {
	t.Helper()
	freeAcks := make(map[*macAck]bool)
	for _, a := range s.ackFree {
		if freeAcks[a] {
			t.Fatalf("at %v: a MAC ACK record is on the free list twice", s.Now())
		}
		freeAcks[a] = true
		if a.m != nil || a.data != nil || a.wait.pending() {
			t.Fatalf("at %v: free MAC ACK record not cleared or still waiting: %+v", s.Now(), a)
		}
	}
	holders := make(map[*transmission]int32)
	for _, tx := range s.active {
		if tx.frame.isMACAck {
			a := tx.frame.ack
			acks[a] = true
			if freeAcks[a] || &a.frame != tx.frame || a.m != tx.from.mac {
				t.Fatalf("at %v: the MAC ACK on the air from node %d does not own its record", s.Now(), tx.from.id)
			}
		}
		holders[tx]++
		for _, other := range tx.overlaps {
			holders[other]++
		}
	}
	for tx, n := range holders {
		known[tx] = true
		if tx.refs != n {
			t.Fatalf("at %v: transmission of node %d has refs %d with %d holders", s.Now(), tx.from.id, tx.refs, n)
		}
	}
	free := make(map[*transmission]bool)
	for _, tx := range s.txFree {
		if free[tx] {
			t.Fatalf("at %v: a transmission is on the free list twice", s.Now())
		}
		free[tx] = true
		if holders[tx] != 0 {
			t.Fatalf("at %v: a free transmission is on the air or in an overlap list", s.Now())
		}
		if tx.refs != 0 || tx.frame != nil || tx.from != nil || len(tx.overlaps) != 0 || tx.endEv.pending() {
			t.Fatalf("at %v: free transmission not cleared: %+v", s.Now(), tx)
		}
	}
	// Nothing is lost either: every object ever seen is held or free.
	for tx := range known {
		if holders[tx] == 0 && !free[tx] {
			t.Fatalf("at %v: a transmission nobody holds is not on the free list", s.Now())
		}
	}
}

// TestTransmissionsAreRecycled runs a hidden-terminal line 0 — 1 — 2: 0 and
// 2 cannot sense each other, so their frames overlap at 1 all the time, and
// 1's MAC ACKs and own traffic overlap theirs. After every event each
// transmission's refs must equal its holders; the set of objects stops
// growing once the free list is warm; and when the air is quiet every one
// of them is back on the list, and so is every MAC ACK record. release clears
// from, so a list that kept a recycled transmission would fault in
// receptionOutcome — here and in every other test of this package.
func TestTransmissionsAreRecycled(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.9)
	topo.SetLink(1, 2, 0.9)
	s := New(topo, DefaultConfig())
	s.Attach(0, &mixedSender{to: 1})
	s.Attach(1, &mixedSender{to: 2})
	s.Attach(2, &mixedSender{to: 1})

	known := make(map[*transmission]bool)
	acks := make(map[*macAck]bool)
	overlapped := 0
	after := func() bool {
		checkTransmissionRefs(t, s, known, acks)
		for _, tx := range s.active {
			overlapped += len(tx.overlaps)
		}
		return true
	}
	s.RunWhile(2*Second, after)
	warm, warmAcks := len(known), len(acks)
	s.RunWhile(10*Second, after)
	if len(known) != warm || len(acks) != warmAcks {
		t.Errorf("%d transmission objects and %d MAC ACK records after 2 s, %d and %d after 10 s: the free lists are not feeding the medium",
			warm, warmAcks, len(known), len(acks))
	}
	if warm > 8 || warmAcks > 4 {
		t.Errorf("three nodes needed %d transmission objects and %d MAC ACK records", warm, warmAcks)
	}
	if overlapped == 0 || s.Counters.Collisions == 0 || s.Counters.MACAcks == 0 {
		t.Fatalf("nothing overlapped: %d overlap entries, %d collisions, %d MAC ACKs", overlapped, s.Counters.Collisions, s.Counters.MACAcks)
	}
	if s.Counters.Transmissions < 2000 {
		t.Fatalf("only %d transmissions", s.Counters.Transmissions)
	}

	for id := range s.nodes {
		s.FailNode(graph.NodeID(id)) // nobody starts another frame
	}
	s.RunWhile(11*Second, after)
	if len(s.active) != 0 || len(s.txFree) != len(known) {
		t.Fatalf("quiet medium: %d on the air, %d of %d objects on the free list", len(s.active), len(s.txFree), len(known))
	}
	// A record that only ever found its radio busy was never seen on the air.
	if len(s.ackFree) < len(acks) {
		t.Fatalf("quiet medium: %d of %d MAC ACK records on the free list", len(s.ackFree), len(acks))
	}
}

// oneFrameSender sends the same Frame over and over.
type oneFrameSender struct {
	node  *Node
	frame Frame
	sent  int
}

func (p *oneFrameSender) Init(n *Node)   { p.node = n; n.Wake() }
func (p *oneFrameSender) Receive(*Frame) {}
func (p *oneFrameSender) Pull() *Frame   { return &p.frame }
func (p *oneFrameSender) Sent(*Frame, bool) {
	p.sent++
	p.node.Wake()
}

// deafProto receives and keeps nothing.
type deafProto struct{}

func (deafProto) Init(*Node)        {}
func (deafProto) Receive(*Frame)    {}
func (deafProto) Pull() *Frame      { return nil }
func (deafProto) Sent(*Frame, bool) {}

// TestSteadyStateTransmitAllocs pins what a frame on the air costs once the
// free lists are warm: nothing. The protocol here reuses its Frame, so the
// whole cycle — contention, start, carrier edges, end, reception, Sent, and
// for a unicast the receiver's SIFS wait, its MAC ACK on the air and the
// duplicate table — runs without the allocator; a real protocol adds its own
// Frame and payload.
func TestSteadyStateTransmitAllocs(t *testing.T) {
	for _, to := range []graph.NodeID{graph.Broadcast, 1} {
		topo := graph.New(2)
		topo.SetLink(0, 1, 1)
		s := New(topo, DefaultConfig())
		a := &oneFrameSender{frame: Frame{To: to, Bytes: 300}}
		s.Attach(0, a)
		s.Attach(1, deafProto{})
		next := func() {
			for sent := a.sent; a.sent == sent; {
				s.Run(s.Now() + Millisecond)
			}
		}
		for i := 0; i < 10; i++ {
			next()
		}
		if allocs := testing.AllocsPerRun(200, next); allocs != 0 {
			t.Errorf("a frame to %d costs %v allocations in steady state, want 0", to, allocs)
		}
		if to != graph.Broadcast && s.Counters.MACAcks < 200 {
			t.Errorf("%d MAC ACKs for %d unicast frames", s.Counters.MACAcks, a.sent)
		}
	}
}

// TestStaleMACAckIsIgnored: protocols recycle a frame once Sent hands it
// back, so the frame a MAC waits on can sit at the address of an earlier
// frame that was acknowledged already. Only an ACK of this transmission —
// the same pointer and the same MAC sequence number — completes it.
func TestStaleMACAckIsIgnored(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 1)
	s := New(topo, DefaultConfig())
	a := &oneFrameSender{frame: Frame{To: 1, Bytes: 300}}
	s.Attach(0, a)
	s.Attach(1, deafProto{})
	m := &s.macs[0]
	s.RunWhile(Second, func() bool { return m.state != macWaitAck })
	if m.state != macWaitAck || m.cur != &a.frame {
		t.Fatal("the sender never waited for a MAC ACK")
	}
	stale := &macAck{data: m.cur, seq: m.cur.seq - 1}
	stale.frame = Frame{From: 1, To: 0, Bytes: macAckBytes, isMACAck: true, ack: stale}
	m.deliver(&transmission{frame: &stale.frame})
	if m.state != macWaitAck || a.sent != 0 {
		t.Fatal("an ACK of an earlier frame at the same address completed the frame")
	}
	s.RunWhile(Second, func() bool { return a.sent == 0 })
	if a.sent != 1 || s.Counters.UnicastSuccesses != 1 {
		t.Fatalf("the frame's own ACK: %d sent, %d unicast successes; want 1, 1", a.sent, s.Counters.UnicastSuccesses)
	}
}
