package routing

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
)

// TestPlanSurvivesWireFormat walks a forwarding plan through the on-air
// header format the real system uses: the source encodes the forwarder list
// with hashed node IDs and fixed-point credits; a forwarder decodes the
// header and resolves the hashes against the candidate set (§4.6(c)). The
// plan a forwarder reconstructs must match what the source computed, up to
// the fixed-point credit quantization.
func TestPlanSurvivesWireFormat(t *testing.T) {
	topo, _ := graph.ConnectedTestbed(1)
	for src := 1; src < 8; src++ {
		plan, err := BuildPlan(topo, graph.NodeID(src), 0, DefaultPlanOptions())
		if err != nil {
			t.Fatal(err)
		}
		// Encode as the source would.
		h := &packet.MOREHeader{
			Type:       packet.TypeData,
			SrcHash:    packet.NodeHash(plan.Src),
			DstHash:    packet.NodeHash(plan.Dst),
			CodeVector: make([]byte, 32),
		}
		for _, f := range plan.Forwarders() {
			h.Forwarders = append(h.Forwarders, packet.Forwarder{
				Node:   f,
				Credit: packet.CreditToWire(plan.Credit[f]),
			})
		}
		buf, err := h.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Decode and resolve as a forwarder would: candidates are every
		// node in the mesh (the real system resolves against nodes whose
		// ETX allows participation; the full set is a superset).
		got, _, err := packet.DecodeMOREHeader(buf)
		if err != nil {
			t.Fatal(err)
		}
		var candidates []graph.NodeID
		for i := 0; i < topo.N(); i++ {
			candidates = append(candidates, graph.NodeID(i))
		}
		packet.ResolveForwarders(got.Forwarders, candidates)
		if len(got.Forwarders) != len(plan.Forwarders()) {
			t.Fatalf("src %d: forwarder count %d != %d", src, len(got.Forwarders), len(plan.Forwarders()))
		}
		for i, f := range plan.Forwarders() {
			if got.Forwarders[i].Node != f {
				t.Fatalf("src %d: forwarder %d resolved to %d, want %d",
					src, i, got.Forwarders[i].Node, f)
			}
			credit := packet.CreditFromWire(got.Forwarders[i].Credit)
			if math.Abs(credit-plan.Credit[f]) > 1.0/packet.CreditScale {
				t.Fatalf("src %d: credit for %d = %v, want %v (±1/%d)",
					src, f, credit, plan.Credit[f], packet.CreditScale)
			}
		}
	}
}

// TestLoadDistributionHandExample checks Algorithm 6 against a fully
// hand-computed diamond: src(2) -> {relay(1), dst(0)} with p(2,1)=1,
// p(1,0)=1, p(2,0)=q.
func TestLoadDistributionHandExample(t *testing.T) {
	q := 0.25
	topo := graph.New(3)
	topo.SetLink(2, 1, 1)
	topo.SetLink(1, 0, 1)
	topo.SetDirected(2, 0, q)
	topo.SetDirected(0, 2, q)
	// EOTX order: dst(0), relay(1, d=1), src(2).
	order := []graph.NodeID{0, 1, 2}
	z, x := loadDistribution(topo, order)
	// Source: q_2(dst,relay) = 1 - (1-q)(1-1) = 1, so z_src = 1;
	// x(src->dst) = q, x(src->relay) = 1-q.
	if !almost(z[2], 1, 1e-12) {
		t.Fatalf("z(src) = %v", z[2])
	}
	if !almost(x[2][0], q, 1e-12) || !almost(x[2][1], 1-q, 1e-12) {
		t.Fatalf("source flow split %v / %v", x[2][0], x[2][1])
	}
	// Relay: load 1-q, perfect link to dst: z = 1-q, all flow to dst.
	if !almost(z[1], 1-q, 1e-12) {
		t.Fatalf("z(relay) = %v", z[1])
	}
	if !almost(x[1][0], 1-q, 1e-12) {
		t.Fatalf("relay->dst flow %v", x[1][0])
	}
	// Destination transmits nothing.
	if z[0] != 0 {
		t.Fatalf("z(dst) = %v", z[0])
	}
	// Total cost = 2-q, matching Algorithm 1 and the Fig 1-1 arithmetic.
	if !almost(totalCost(z), 2-q, 1e-12) {
		t.Fatalf("total cost %v, want %v", totalCost(z), 2-q)
	}
}

// TestCreditsHandExample verifies Eq. (3.3) on the same diamond: the
// relay's expected receptions per source packet are p(src->relay)·z_src = 1,
// so its TX credit equals its z of 1-q.
func TestCreditsHandExample(t *testing.T) {
	q := 0.25
	topo := graph.New(3)
	topo.SetLink(2, 1, 1)
	topo.SetLink(1, 0, 1)
	topo.SetDirected(2, 0, q)
	topo.SetDirected(0, 2, q)
	plan, err := planNoPrune(topo, 2, 0, OrderETX)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(plan.Credit[1], 1-q, 1e-12) {
		t.Fatalf("relay credit %v, want %v", plan.Credit[1], 1-q)
	}
}
