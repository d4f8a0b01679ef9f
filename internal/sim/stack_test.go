package sim

import (
	"testing"

	"repro/internal/graph"
)

// TestStackRoutesSentToSupplier: Sent reaches the layer that supplied the
// frame, whatever the order the frames come back in, and a frame no layer
// pulled reaches every layer. Nothing stays listed once all are back.
func TestStackRoutesSentToSupplier(t *testing.T) {
	a := &scriptedProto{frames: []*Frame{{Payload: "a"}}}
	b := &scriptedProto{frames: []*Frame{{Payload: "b"}}}
	st := NewStack(a, b)
	fa, fb := st.Pull(), st.Pull()
	if fa == nil || fa.Payload != "a" || fb == nil || fb.Payload != "b" {
		t.Fatalf("pulled %+v then %+v, want a's frame then b's", fa, fb)
	}
	st.Sent(fb, true)
	st.Sent(fa, false)
	if len(a.sent) != 1 || a.sent[0] != fa || len(b.sent) != 1 || b.sent[0] != fb {
		t.Fatalf("Sent misrouted: a got %+v, b got %+v", a.sent, b.sent)
	}
	stray := &Frame{Payload: "pushed"}
	st.Sent(stray, true)
	if len(a.sent) != 2 || a.sent[1] != stray || len(b.sent) != 2 || b.sent[1] != stray {
		t.Fatalf("an unpulled frame did not reach every layer: a got %+v, b got %+v", a.sent, b.sent)
	}
	if len(st.pulled) != 0 {
		t.Fatalf("%d frames still listed after every Sent", len(st.pulled))
	}
}

// turnTaker is one of two stack layers that take turns: layer i offers a
// fresh frame, carrying itself, when *turn is i. Sent checks that the frame
// came back to the layer that made it.
type turnTaker struct {
	node      *Node
	i         int
	turn      *int
	out       map[*Frame]bool
	sent      int
	misrouted int
}

func (p *turnTaker) Init(n *Node)   { p.node = n; n.Wake() }
func (p *turnTaker) Receive(*Frame) {}
func (p *turnTaker) Pull() *Frame {
	if *p.turn != p.i {
		return nil
	}
	*p.turn = 1 - p.i
	f := &Frame{To: graph.Broadcast, Bytes: 1500, Payload: p}
	p.out[f] = true
	return f
}
func (p *turnTaker) Sent(f *Frame, ok bool) {
	if f.Payload != p || !p.out[f] {
		p.misrouted++
	}
	delete(p.out, f)
	p.sent++
	p.node.Wake()
}

// TestStackKeepsOneAbandonedFramePerFailure: a node that fails with a frame
// on the air never gets that frame's Sent (mac.silence forgets it), so the
// stack keeps its entry. Across failures and recoveries every other frame
// must still come back to its supplier, and the list must hold no more than
// one entry per failure.
func TestStackKeepsOneAbandonedFramePerFailure(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 1)
	s := New(topo, DefaultConfig())
	turn := 0
	layers := []*turnTaker{
		{i: 0, turn: &turn, out: map[*Frame]bool{}},
		{i: 1, turn: &turn, out: map[*Frame]bool{}},
	}
	st := NewStack(layers[0], layers[1])
	s.Attach(0, st)
	s.Attach(1, deafProto{})
	sent := func() int { return layers[0].sent + layers[1].sent }

	const failures, framesBetween = 5, 20
	for k := 1; k <= failures; k++ {
		// Fail while the node's frame is on the air.
		s.RunWhile(s.Now()+Second, func() bool { return len(s.active) == 0 })
		if len(s.active) != 1 {
			t.Fatalf("failure %d: %d frames on the air, want the node's one", k, len(s.active))
		}
		s.FailNode(0)
		s.Run(s.Now() + 10*Millisecond)
		s.RecoverNode(0)
		want := sent() + framesBetween
		s.RunWhile(s.Now()+Second, func() bool { return sent() < want })
		if sent() < want {
			t.Fatalf("failure %d: %d of %d frames came back after recovery", k, sent()-want+framesBetween, framesBetween)
		}
		if len(st.pulled) > k {
			t.Fatalf("after %d failures the stack lists %d frames", k, len(st.pulled))
		}
	}
	for _, l := range layers {
		if l.misrouted != 0 {
			t.Errorf("layer %d got %d frames it did not supply", l.i, l.misrouted)
		}
		if l.sent < failures*framesBetween/2-failures {
			t.Errorf("layer %d got only %d frames back", l.i, l.sent)
		}
	}
	if abandoned := len(layers[0].out) + len(layers[1].out); abandoned != failures || len(st.pulled) != failures {
		t.Errorf("%d frames never came back and %d are listed after %d failures", abandoned, len(st.pulled), failures)
	}
}

// TestFreeListReusesAndPoisons: New runs only on an empty list, Put runs
// Reset, the last object Put is the first one Got, the zero value makes and
// zeroes objects itself, and a warm list allocates nothing.
func TestFreeListReusesAndPoisons(t *testing.T) {
	type obj struct{ v int }
	made, reset := 0, 0
	l := FreeList[obj]{
		New:   func() *obj { made++; return &obj{v: 7} },
		Reset: func(o *obj) { reset++; o.v = -1 },
	}
	x, y := l.Get(), l.Get()
	if made != 2 || x == y || x.v != 7 {
		t.Fatalf("two Gets on an empty list: New ran %d times, got %+v and %+v", made, x, y)
	}
	l.Put(x)
	l.Put(y)
	if reset != 2 || x.v != -1 || y.v != -1 {
		t.Fatalf("Put ran Reset %d times, left %+v and %+v", reset, x, y)
	}
	if got := l.Get(); got != y {
		t.Fatal("Get did not return the object Put last")
	}
	if got := l.Get(); got != x {
		t.Fatal("Get did not return the object Put first, second")
	}
	if made != 2 {
		t.Fatalf("New ran %d times with objects on the list", made)
	}
	l.Get()
	if made != 3 {
		t.Fatalf("New ran %d times, want 3 once the list is empty again", made)
	}

	var zero FreeList[obj]
	z := zero.Get()
	z.v = 5
	zero.Put(z)
	if z.v != 0 || zero.Get() != z {
		t.Fatalf("the zero list kept %+v", z)
	}

	l.Put(x)
	if allocs := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); allocs != 0 {
		t.Errorf("a warm Get and Put cost %v allocations, want 0", allocs)
	}
}
