package routing

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func almost(a, b, eps float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= eps
}

func TestLinkETX(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 0.5)
	opt := ETXOptions{Threshold: 0.1, AckAware: false}
	if got := linkETXFwd(topo, 0, 1, topo.Prob(0, 1), opt); !almost(got, 2, 1e-12) {
		t.Fatalf("forward-only ETX = %v, want 2", got)
	}
	opt.AckAware = true
	if got := linkETXFwd(topo, 0, 1, topo.Prob(0, 1), opt); !almost(got, 4, 1e-12) {
		t.Fatalf("ack-aware ETX = %v, want 4", got)
	}
	topo.SetDirected(1, 0, 0.05)
	if got := linkETXFwd(topo, 0, 1, topo.Prob(0, 1), opt); !math.IsInf(got, 1) {
		t.Fatalf("link with dead reverse should be unusable, got %v", got)
	}
}

func TestETXDiamondPrefersRelay(t *testing.T) {
	// Paper's Fig 1-1 numbers: with perfect relay links the 2-hop ETX is 2,
	// beating the direct 1/0.49 ≈ 2.04.
	topo := graph.New(3)
	topo.SetLink(0, 1, 1)
	topo.SetLink(1, 2, 1)
	topo.SetLink(0, 2, 0.49)
	tab := ETXToDestination(topo, 2, ETXOptions{Threshold: 0.1, AckAware: false})
	if !almost(tab.Dist[0], 2, 1e-12) {
		t.Fatalf("src ETX = %v, want 2", tab.Dist[0])
	}
	path := tab.Path(0)
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("path = %v, want through relay", path)
	}
}

func TestETXLine(t *testing.T) {
	topo := graph.Line(4, 0.5, 10)
	tab := ETXToDestination(topo, 3, ETXOptions{Threshold: 0.1, AckAware: false})
	for i := 0; i < 4; i++ {
		want := float64(3-i) * 2
		if !almost(tab.Dist[i], want, 1e-9) {
			t.Fatalf("node %d ETX = %v, want %v", i, tab.Dist[i], want)
		}
	}
	if got := tab.Path(0); len(got) != 4 {
		t.Fatalf("path = %v", got)
	}
}

func TestETXUnreachable(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.9)
	tab := ETXToDestination(topo, 2, DefaultETXOptions())
	if !math.IsInf(tab.Dist[0], 1) {
		t.Fatal("unreachable node should have Inf ETX")
	}
	if tab.Path(0) != nil {
		t.Fatal("unreachable path should be nil")
	}
	if tab.Dist[2] != 0 || tab.Path(2) == nil || len(tab.Path(2)) != 1 {
		t.Fatal("destination self-path wrong")
	}
}

func TestETXAsymmetricUsesDirectional(t *testing.T) {
	// Forward-only metric must use p(i->j) for i's cost toward j.
	topo := graph.New(2)
	topo.SetDirected(0, 1, 0.9)
	topo.SetDirected(1, 0, 0.3)
	opt := ETXOptions{Threshold: 0.1, AckAware: false}
	tabTo1 := ETXToDestination(topo, 1, opt)
	if !almost(tabTo1.Dist[0], 1/0.9, 1e-12) {
		t.Fatalf("dist 0->1 = %v", tabTo1.Dist[0])
	}
	tabTo0 := ETXToDestination(topo, 0, opt)
	if !almost(tabTo0.Dist[1], 1/0.3, 1e-12) {
		t.Fatalf("dist 1->0 = %v", tabTo0.Dist[1])
	}
}

func TestETXOnTestbedAllReachable(t *testing.T) {
	topo, _ := graph.ConnectedTestbed(1)
	for dst := 0; dst < topo.N(); dst++ {
		tab := ETXToDestination(topo, graph.NodeID(dst), DefaultETXOptions())
		for i := 0; i < topo.N(); i++ {
			if math.IsInf(tab.Dist[i], 1) {
				t.Fatalf("node %d cannot reach %d", i, dst)
			}
			if p := tab.Path(graph.NodeID(i)); p == nil {
				t.Fatalf("no path %d -> %d", i, dst)
			}
		}
	}
}

// refHeap is the container/heap frontier distHeap replaced: the reference
// its push and pop order must match.
type refHeap []distEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func TestDistHeapMatchesContainerHeap(t *testing.T) {
	// Dijkstra settles equal distances in the heap's sift order, and the
	// digests see that order: on random pushes and pops drawn from a few
	// distances, so most keys tie, distHeap must pop exactly the entries
	// container/heap pops, in the same order.
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got distHeap
		var want refHeap
		for op := 0; op < 2000; op++ {
			if len(got) != want.Len() {
				t.Fatalf("seed %d op %d: %d entries, reference %d", seed, op, len(got), want.Len())
			}
			if len(got) > 0 && rng.Intn(5) < 2 {
				g, w := got.pop(), heap.Pop(&want).(distEntry)
				if g != w {
					t.Fatalf("seed %d op %d: popped %+v, container/heap pops %+v", seed, op, g, w)
				}
				continue
			}
			e := distEntry{node: graph.NodeID(op), dist: float64(rng.Intn(4))}
			got.push(e)
			heap.Push(&want, e)
		}
		for len(got) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(distEntry); g != w {
				t.Fatalf("seed %d drain: popped %+v, container/heap pops %+v", seed, g, w)
			}
		}
	}
}
