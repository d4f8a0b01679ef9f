package routing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestEOTXSingleLink(t *testing.T) {
	topo := graph.New(2)
	topo.SetLink(0, 1, 0.25)
	d := EOTX(topo, 1, DefaultEOTXOptions())
	if !almost(d[0], 4, 1e-9) {
		t.Fatalf("EOTX over single 0.25 link = %v, want 4", d[0])
	}
	if d[1] != 0 {
		t.Fatalf("EOTX of destination = %v", d[1])
	}
}

func TestEOTXTwoIndependentRelays(t *testing.T) {
	// src (0) -> relays (1,2) with p each; relays -> dst (3) perfect.
	// EOTX(src) = 1/(1-(1-p)^2) + 1: transmissions until some relay
	// receives, plus one relay transmission.
	p := 0.3
	topo := graph.New(4)
	topo.SetDirected(0, 1, p)
	topo.SetDirected(0, 2, p)
	topo.SetDirected(1, 3, 1)
	topo.SetDirected(2, 3, 1)
	d := EOTX(topo, 3, DefaultEOTXOptions())
	want := 1/(1-(1-p)*(1-p)) + 1
	if !almost(d[0], want, 1e-9) {
		t.Fatalf("EOTX = %v, want %v", d[0], want)
	}
}

func TestEOTXNeverExceedsETX(t *testing.T) {
	// EOTX uses every path ETX uses and more; it is a lower bound
	// (§5.4: EOTX generalizes ETX to all-path routing).
	for seed := int64(0); seed < 10; seed++ {
		topo := randomTopology(rand.New(rand.NewSource(seed)), 8, 0.5)
		for dst := 0; dst < topo.N(); dst++ {
			dd := graph.NodeID(dst)
			eotx := EOTX(topo, dd, DefaultEOTXOptions())
			etx := ETXToDestination(topo, dd, ETXOptions{Threshold: 0, AckAware: false})
			for i := range eotx {
				if eotx[i] > etx.Dist[i]+1e-9 {
					t.Fatalf("seed %d dst %d node %d: EOTX %v > ETX %v",
						seed, dst, i, eotx[i], etx.Dist[i])
				}
			}
		}
	}
}

func randomTopology(rng *rand.Rand, n int, density float64) *graph.Topology {
	topo := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				topo.SetLink(graph.NodeID(i), graph.NodeID(j), 0.05+0.95*rng.Float64())
			}
		}
	}
	return topo
}

func TestEOTXAlgorithmsAgree(t *testing.T) {
	// Dijkstra (Alg 5), Bellman-Ford (Alg 3+4) and the exponential
	// fixed-point oracle must agree on random small networks.
	for seed := int64(0); seed < 20; seed++ {
		topo := randomTopology(rand.New(rand.NewSource(seed)), 7, 0.55)
		for dst := 0; dst < topo.N(); dst++ {
			dd := graph.NodeID(dst)
			a := EOTX(topo, dd, DefaultEOTXOptions())
			b := EOTXBellmanFord(topo, dd)
			c := EOTXFixedPoint(topo, dd, 8)
			for i := range a {
				if !almost(a[i], b[i], 1e-6) {
					t.Fatalf("seed %d dst %d node %d: Dijkstra %v != BF %v", seed, dst, i, a[i], b[i])
				}
				if !almost(a[i], c[i], 1e-6) {
					t.Fatalf("seed %d dst %d node %d: Dijkstra %v != oracle %v", seed, dst, i, a[i], c[i])
				}
			}
		}
	}
}

func TestEOTXMatchesMonteCarlo(t *testing.T) {
	// Simulate the opportunistic forwarding rule (the best receiver
	// forwards, §5.4) and compare the empirical expected transmissions to
	// the metric.
	topo := randomTopology(rand.New(rand.NewSource(3)), 6, 0.7)
	dst := graph.NodeID(0)
	d := EOTX(topo, dst, DefaultEOTXOptions())
	src := graph.NodeID(-1)
	for i := topo.N() - 1; i > 0; i-- {
		if !math.IsInf(d[i], 1) {
			src = graph.NodeID(i)
			break
		}
	}
	if src < 0 {
		t.Skip("disconnected draw")
	}
	rng := rand.New(rand.NewSource(99))
	const trials = 30000
	var total float64
	for trial := 0; trial < trials; trial++ {
		at := src
		for at != dst {
			total++
			best := at
			for j := 0; j < topo.N(); j++ {
				jid := graph.NodeID(j)
				if jid == at {
					continue
				}
				if rng.Float64() < topo.Prob(at, jid) && d[jid] < d[best] {
					best = jid
				}
			}
			at = best
			if total > trials*1000 {
				t.Fatal("simulation diverged")
			}
		}
	}
	emp := total / trials
	if math.Abs(emp-d[src])/d[src] > 0.03 {
		t.Fatalf("Monte Carlo expected transmissions %.3f vs EOTX %.3f", emp, d[src])
	}
}

func TestEOTXGapTopology(t *testing.T) {
	// Fig 5-1: check the closed-form EOTX values.
	k, p := 5, 0.1
	topo := graph.GapTopology(k, p)
	src, a, b := graph.NodeID(0), graph.NodeID(1), graph.NodeID(2)
	dst := graph.NodeID(3 + k)
	d := EOTX(topo, dst, DefaultEOTXOptions())
	wantB := 1/(1-math.Pow(1-p, float64(k))) + 1
	if !almost(d[b], wantB, 1e-9) {
		t.Fatalf("EOTX(B) = %v, want %v", d[b], wantB)
	}
	// With p = 0.1 < 0.3 and k > 1, B beats A (§5.7), so src routes via B:
	// EOTX(src) = wantB + 1.
	if !almost(d[src], wantB+1, 1e-6) {
		t.Fatalf("EOTX(src) = %v, want %v", d[src], wantB+1)
	}
	// A's optimal strategy is subtle: if dst (p) misses, hand the packet
	// back to src (perfect link), which routes via B — so
	// EOTX(A) = 1 + (1-p)·EOTX(src), well below the naive 1/p.
	wantA := 1 + (1-p)*(wantB+1)
	if !almost(d[a], wantA, 1e-6) {
		t.Fatalf("EOTX(A) = %v, want %v", d[a], wantA)
	}
	if d[a] >= 1/p {
		t.Fatalf("EOTX(A) = %v should beat the naive direct cost %v", d[a], 1/p)
	}
}

func TestEOTXUnreachable(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.8)
	d := EOTX(topo, 2, DefaultEOTXOptions())
	if !math.IsInf(d[0], 1) || !math.IsInf(d[1], 1) {
		t.Fatalf("EOTX of disconnected nodes = %v", d)
	}
	b := EOTXBellmanFord(topo, 2)
	if !math.IsInf(b[0], 1) {
		t.Fatal("BF should agree on unreachability")
	}
}

func TestEOTXQuickAgreement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		topo := randomTopology(rand.New(rand.NewSource(seed)), 6, 0.5)
		a := EOTX(topo, 0, DefaultEOTXOptions())
		b := EOTXBellmanFord(topo, 0)
		for i := range a {
			if !almost(a[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
