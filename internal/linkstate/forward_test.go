package linkstate

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

// silentProto has nothing to send: a woken MAC contends, pulls nil and goes
// idle again.
type silentProto struct{}

func (silentProto) Init(*sim.Node)        {}
func (silentProto) Receive(*sim.Frame)    {}
func (silentProto) Pull() *sim.Frame      { return nil }
func (silentProto) Sent(*sim.Frame, bool) {}

// TestForwardTimersRecycled drives handleLSA on an agent whose node runs no
// probe or advertise timers, so every pending event is a forward timer or
// the MAC's own contention. The rebroadcast jitter runs on timer records
// recycled through the agent's free list: each LSA in jitter holds its own
// record until it fires, so none is lost in jitter to a record re-armed while
// pending; a superseded LSA floods nothing but returns its record; and a
// warm forward allocates nothing.
func TestForwardTimersRecycled(t *testing.T) {
	const n, lsas = 6, 400
	const origins = n - 2 // 1..origins send fresh LSAs; n-1 is kept for the superseded one
	s := sim.New(graph.New(n), sim.DefaultConfig())
	s.Attach(0, silentProto{})
	a := NewAgent(DefaultConfig(), n)
	a.node, a.id = s.Node(0), 0 // bound, not Init'ed: nothing else arms a timer

	// Fresh advertisements, made ahead of the measurement: the origins in
	// turn, each LSA newer than its origin's last.
	fresh := make([]*packet.LSA, lsas)
	for i := range fresh {
		fresh[i] = &packet.LSA{Origin: graph.NodeID(1 + i%origins), Seq: uint32(1 + i/origins), Heard: graph.NewNodeSet(n)}
	}
	next := 0
	take := func() *packet.LSA { next++; return fresh[next-1] }
	free := func() (n int) { // records on the free list; none may hold an LSA
		for rec := a.fwdFree; rec != nil; rec = rec.next {
			if rec.lsa != nil {
				t.Fatalf("a free record still holds the LSA of origin %d", rec.lsa.Origin)
			}
			n++
		}
		return n
	}
	settle := func() { s.Run(s.Now() + floodJitter + 10*sim.Millisecond) }

	// Four LSAs in jitter at once take four records; each fires once, queues
	// its own LSA and comes back.
	var inJitter []*packet.LSA
	for i := 0; i < origins; i++ {
		l := take()
		inJitter = append(inJitter, l)
		a.handleLSA(l)
		if free() != 0 {
			t.Fatalf("a record is free with %d LSAs in jitter and none forwarded yet", i+1)
		}
	}
	if got := s.Pending(); got != origins {
		t.Fatalf("%d events pending for %d LSAs in jitter", got, origins)
	}
	s.RunWhile(s.Now()+sim.Second, func() bool {
		// A record is on the free list exactly when its LSA has been handed
		// on: the two counts move together, event by event.
		if free() != len(a.pendingFwd) {
			t.Fatalf("%d records free after %d of %d timers fired", free(), len(a.pendingFwd), origins)
		}
		return true
	})
	records := free()
	if records != origins || len(a.pendingFwd) != origins {
		t.Fatalf("%d records and %d queued LSAs after %d LSAs in jitter at once", records, len(a.pendingFwd), origins)
	}
	queued := map[*packet.LSA]bool{}
	for _, p := range a.pendingFwd {
		queued[p.lsa] = true
	}
	for _, l := range inJitter {
		if !queued[l] {
			t.Fatalf("origin %d's LSA was lost in jitter: a record was re-armed while pending", l.Origin)
		}
	}

	// A superseded LSA floods nothing, and its record still comes back.
	a.pendingFwd = a.pendingFwd[:0]
	stale := &packet.LSA{Origin: n - 1, Seq: 1, Heard: graph.NewNodeSet(n)}
	a.handleLSA(stale)
	if free() != records-1 {
		t.Fatalf("%d records free with one LSA in jitter, want %d", free(), records-1)
	}
	if !a.accept(&packet.LSA{Origin: stale.Origin, Seq: stale.Seq + 1, Heard: graph.NewNodeSet(n)}) {
		t.Fatal("the newer LSA was not installed")
	}
	settle()
	if len(a.pendingFwd) != 0 || free() != records {
		t.Fatalf("superseded LSA: %d queued for flooding (want 0), %d of %d records free", len(a.pendingFwd), free(), records)
	}

	// Steady state: accept, draw the jitter, arm, fire, queue — no Event, no
	// closure, nothing.
	round := func() {
		a.pendingFwd = a.pendingFwd[:0]
		a.handleLSA(take())
		settle()
		if len(a.pendingFwd) != 1 || free() != records {
			t.Fatalf("a forwarded LSA queued %d and left %d of %d records free", len(a.pendingFwd), free(), records)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("forwarding an unscoped LSA allocates %v objects, want 0", allocs)
	}
}
