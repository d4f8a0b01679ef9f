package experiments

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/linkstate"
	"repro/internal/sim"
)

// idleProto is a data protocol with nothing to send.
type idleProto struct{}

func (idleProto) Init(*sim.Node)        {}
func (idleProto) Receive(*sim.Frame)    {}
func (idleProto) Pull() *sim.Frame      { return nil }
func (idleProto) Sent(*sim.Frame, bool) {}

// TestConvergedCursorIsExact asks converged after every event of a learned
// control plane with LSA aging — converging, losing a crashed node's
// origin to MaxAge one agent at a time, and converging again once it is
// back — and holds every answer to a check of every agent. The run must
// include answers given while an agent the cursor had passed was short, so
// the cursor cannot just trust what it passed.
func TestConvergedCursorIsExact(t *testing.T) {
	const n, victim = 12, 5
	topo, _ := graph.ConnectedGeometric(graph.DefaultGeometric(n), 3)
	opts := Options{State: StateLearned, LinkState: linkstate.DefaultConfig()}
	opts.LinkState.AdvertiseInterval = sim.Second
	opts.LinkState.MaxAge = 4 * sim.Second
	cp := NewControlPlane(topo, opts)
	s := sim.New(topo, sim.DefaultConfig())
	for i := 0; i < n; i++ {
		cp.attach(s, graph.NodeID(i), idleProto{})
	}

	var answers, yes, passedShort int
	check := func() bool {
		want := true
		for _, a := range cp.agents {
			want = want && a.KnownOrigins() >= n
		}
		for _, a := range cp.agents[:min(cp.convAt, n)] {
			if cp.convAt < n && a.KnownOrigins() < n {
				passedShort++
				break
			}
		}
		if got := cp.converged(); got != want {
			t.Fatalf("at %v: converged() = %v, every agent says %v", s.Now(), got, want)
		}
		answers++
		if want {
			yes++
		}
		return true
	}
	s.RunWhile(20*sim.Second, check)
	convergedBefore := yes
	topo.Isolate(victim)
	s.FailNode(victim)
	s.RunWhile(40*sim.Second, check)
	if cp.converged() {
		t.Fatal("still converged with a node down past MaxAge")
	}
	topo.Restore(victim)
	s.RecoverNode(victim)
	s.RunWhile(70*sim.Second, check)
	if convergedBefore == 0 || !cp.converged() || passedShort == 0 {
		t.Fatalf("of %d answers %d before the crash said converged, the end says %v, %d came with a passed agent short: the run does not exercise the cursor",
			answers, convergedBefore, cp.converged(), passedShort)
	}
	t.Logf("%d answers, %d converged, %d with an agent the cursor passed short", answers, yes, passedShort)
}
