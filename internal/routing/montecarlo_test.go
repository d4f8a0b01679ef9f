package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestSimulateOpportunisticMatchesEOTX(t *testing.T) {
	// Proposition 4 made empirical: the forwarding rule under the EOTX
	// order costs EOTX(src) transmissions in expectation.
	for seed := int64(0); seed < 5; seed++ {
		topo := randomTopology(rand.New(rand.NewSource(seed)), 7, 0.6)
		d := EOTX(topo, 0, DefaultEOTXOptions())
		src := graph.NodeID(topo.N() - 1)
		if math.IsInf(d[src], 1) {
			continue
		}
		got, err := simulateOpportunistic(topo, src, 0, d, 20000, 99)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-d[src])/d[src] > 0.05 {
			t.Fatalf("seed %d: simulated %.3f vs EOTX %.3f", seed, got, d[src])
		}
	}
}

func TestSimulateOpportunisticETXOrderCostsMore(t *testing.T) {
	// On the gap topology the ETX priority order must cost measurably more
	// than the EOTX order — the simulated counterpart of Prop. 6.
	k, p := 6, 0.08
	topo := graph.GapTopology(k, p)
	src, dst := graph.NodeID(0), graph.NodeID(3+k)
	etx := ETXToDestination(topo, dst, ETXOptions{Threshold: 0, AckAware: false}).Dist
	eotx := EOTX(topo, dst, DefaultEOTXOptions())
	cETX, err := simulateOpportunistic(topo, src, dst, etx, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	cEOTX, err := simulateOpportunistic(topo, src, dst, eotx, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cETX < 1.5*cEOTX {
		t.Fatalf("ETX order %.2f should cost much more than EOTX order %.2f", cETX, cEOTX)
	}
	if math.Abs(cEOTX-eotx[src])/eotx[src] > 0.05 {
		t.Fatalf("EOTX-order simulation %.3f vs metric %.3f", cEOTX, eotx[src])
	}
}

func TestSimulateOpportunisticUnreachable(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.9)
	d := EOTX(topo, 2, DefaultEOTXOptions())
	if _, err := simulateOpportunistic(topo, 0, 2, d, 10, 1); err == nil {
		t.Fatal("unreachable simulation succeeded")
	}
}
