package linkstate

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

// live returns a copy of the queue's entries, head first.
func (q *lsaQueue) live() []pendingLSA {
	out := make([]pendingLSA, q.n)
	for i := range out {
		out[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	return out
}

// TestLSAQueueOrder pushes and pops in uneven rounds, so that the live
// entries wrap round the end of the ring and the ring grows while they do:
// every LSA comes out once and in push order, and no slot outside the live
// ones keeps an LSA reachable.
func TestLSAQueueOrder(t *testing.T) {
	lsas := make([]*packet.LSA, 200)
	for i := range lsas {
		lsas[i] = &packet.LSA{Seq: uint32(i)}
	}
	var q lsaQueue
	pushed, popped, wrappedGrows := 0, 0, 0
	check := func() {
		t.Helper()
		if q.len() != pushed-popped {
			t.Fatalf("%d live after %d pushes and %d pops", q.len(), pushed, popped)
		}
		for i, p := range q.buf {
			if live := (i-q.head+len(q.buf))%len(q.buf) < q.n; !live && p.lsa != nil {
				t.Fatalf("slot %d outside the %d live from %d holds LSA %d", i, q.n, q.head, p.lsa.Seq)
			}
		}
	}
	for round := 0; pushed < len(lsas); round++ {
		for k := 0; k < 1+round%5 && pushed < len(lsas); k++ {
			size, wrapped := len(q.buf), q.head+q.n > len(q.buf)
			q.push(pendingLSA{lsa: lsas[pushed]})
			pushed++
			if wrapped && len(q.buf) > size {
				wrappedGrows++
			}
			check()
		}
		for k := 0; k < 1+round%3 && q.len() > 0; k++ {
			if l := q.pop(); l != lsas[popped] {
				t.Fatalf("popped LSA %d, want %d", l.Seq, popped)
			}
			popped++
			check()
		}
	}
	for q.len() > 0 {
		if l := q.pop(); l != lsas[popped] {
			t.Fatalf("draining: popped LSA %d, want %d", l.Seq, popped)
		}
		popped++
		check()
	}
	if popped != len(lsas) || wrappedGrows == 0 {
		t.Fatalf("%d of %d popped, %d grows of a wrapped ring: the test did not exercise the wrap", popped, len(lsas), wrappedGrows)
	}
	q.push(pendingLSA{lsa: lsas[0]})
	q.push(pendingLSA{lsa: lsas[1]})
	q.reset()
	if q.len() != 0 || q.popDue(1<<62) != nil {
		t.Fatal("reset left entries live")
	}
	check()
}

// TestLSAQueueAllocatesNothing: a warm queue that keeps a standing backlog —
// the head chasing the tail round the ring — neither allocates nor grows.
func TestLSAQueueAllocatesNothing(t *testing.T) {
	l := &packet.LSA{}
	var q lsaQueue
	for i := 0; i < 3; i++ {
		q.push(pendingLSA{lsa: l})
	}
	step := func() {
		q.push(pendingLSA{lsa: l})
		q.pop()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	capBefore := len(q.buf)
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("a push and a pop on a warm queue allocate %v objects, want 0", allocs)
	}
	if len(q.buf) != capBefore || q.len() != 3 {
		t.Errorf("ring size %d -> %d, %d live: the queue grew under a standing backlog of 3", capBefore, len(q.buf), q.len())
	}
}

// TestLSAQueueDueAndPiggyback drives an agent's two queues through Pull and
// Piggyback with piggybacking on: Pull floods nothing before the head's
// deadline and the queued LSA behind a waiting head waits too; a data frame
// takes own advertisements first, then forwards, in queue order and at most
// piggybackMax of them; and once the deadline passes Pull floods what is
// left, in order.
func TestLSAQueueDueAndPiggyback(t *testing.T) {
	const n = 3
	s := sim.New(graph.Line(n, 0.95, 10), sim.DefaultConfig())
	s.Attach(0, silentProto{})
	cfg := DefaultConfig()
	cfg.Piggyback = true
	a := NewAgent(cfg, n)
	a.node, a.id = s.Node(0), 0 // bound, not Init'ed: the prober has nothing to send

	lsa := func(origin, seq int) *packet.LSA {
		return &packet.LSA{Origin: graph.NodeID(origin), Seq: uint32(seq)}
	}
	const due = 5 * sim.Second
	adv := []*packet.LSA{lsa(0, 1), lsa(0, 2)}
	fwd := []*packet.LSA{lsa(1, 1), lsa(2, 1), lsa(1, 2), lsa(2, 2)}
	for _, l := range adv {
		a.pendingAdv.push(pendingLSA{lsa: l, due: due})
	}
	for _, l := range fwd {
		a.pendingFwd.push(pendingLSA{lsa: l, due: due})
	}
	if f := a.Pull(); f != nil {
		t.Fatalf("Pull flooded %v before the deadline", f.Payload)
	}

	data := &sim.Frame{To: graph.Broadcast, Bytes: 1500}
	a.Piggyback(data)
	want := []*packet.LSA{adv[0], adv[1], fwd[0], fwd[1]}
	if len(data.Piggyback) != len(want) {
		t.Fatalf("%d LSAs rode the data frame, want %d", len(data.Piggyback), len(want))
	}
	for i, p := range data.Piggyback {
		if p != want[i] {
			t.Fatalf("ride %d carried %v, want %v", i, p, want[i])
		}
	}
	if a.pendingAdv.len() != 0 || a.pendingFwd.len() != 2 {
		t.Fatalf("%d own and %d forwarded LSAs left, want 0 and 2", a.pendingAdv.len(), a.pendingFwd.len())
	}
	unicast := &sim.Frame{To: 1, Bytes: 1500}
	if a.Piggyback(unicast); len(unicast.Piggyback) != 0 {
		t.Fatal("an LSA rode a unicast frame")
	}

	a.node.After(due, func() {}) // the clock stops at the last event
	s.Run(due)
	for _, l := range fwd[2:] {
		f := a.Pull()
		if f == nil || f.Payload != l {
			t.Fatalf("at the deadline Pull gave %v, want the forward of origin %d seq %d", f, l.Origin, l.Seq)
		}
		a.Sent(f, true)
	}
	if f := a.Pull(); f != nil {
		t.Fatalf("Pull flooded %v from empty queues", f.Payload)
	}
}
