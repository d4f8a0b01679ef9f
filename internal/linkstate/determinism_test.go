package linkstate

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/sim"
)

// mkAgent returns an agent attached to a 1-node simulation (so it has a
// clock at t=0) with aging enabled.
func mkAgent(n int) *Agent {
	cfg := DefaultConfig()
	cfg.MaxAge = 10 * sim.Second
	a := NewAgent(cfg, n)
	s := sim.New(graph.New(1), sim.DefaultConfig())
	s.Attach(0, a)
	return a
}

// install populates the database in the given origin order, marking odd
// origins stale (past MaxAge at now=0).
func install(a *Agent, order []graph.NodeID) {
	for _, origin := range order {
		lsa := &packet.LSA{Origin: origin, Seq: uint32(origin) + 1}
		for nb := graph.NodeID(0); nb < 3; nb++ {
			if nb == origin {
				continue
			}
			lsa.Neighbors = append(lsa.Neighbors, nb)
			lsa.Probs = append(lsa.Probs, uint8(37*int(origin)+int(nb)))
		}
		a.accept(lsa)
		if origin%2 == 1 {
			a.cold[origin].receivedAt = -11 * sim.Second // stale: expired at now=0
		}
	}
}

// TestExpireAndTopologyAreOrderIndependent: expire() and Topology() walk the
// database, so every observable (database contents, counters, version, the
// rebuilt graph) must come out identical regardless of the order the LSAs
// were installed in. The srcr map-iteration bug of PR 5 has siblings; this
// pins the two in linkstate.
func TestExpireAndTopologyAreOrderIndependent(t *testing.T) {
	const n = 24
	forward := make([]graph.NodeID, n)
	reverse := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		forward[i] = graph.NodeID(i)
		reverse[i] = graph.NodeID(n - 1 - i)
	}
	a := mkAgent(n)
	b := mkAgent(n)
	install(a, forward)
	install(b, reverse)
	va, vb := a.version, b.version
	a.expire()
	b.expire()
	if a.ExpiredLSAs != b.ExpiredLSAs {
		t.Fatalf("expiry count diverged: %d vs %d", a.ExpiredLSAs, b.ExpiredLSAs)
	}
	if a.version-va != b.version-vb {
		t.Fatalf("version delta diverged: %d vs %d", a.version-va, b.version-vb)
	}
	if a.KnownOrigins() != b.KnownOrigins() {
		t.Fatalf("database size diverged: %d vs %d", a.KnownOrigins(), b.KnownOrigins())
	}
	for origin := graph.NodeID(0); origin < n; origin++ {
		if a.knows(origin) != b.knows(origin) {
			t.Fatalf("origin %d survived in one database only", origin)
		}
	}
	// The rebuilt topologies must be identical link for link.
	ta, tb := a.Topology(), b.Topology()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pa := ta.Prob(graph.NodeID(i), graph.NodeID(j))
			pb := tb.Prob(graph.NodeID(i), graph.NodeID(j))
			if pa != pb {
				t.Fatalf("rebuilt topology diverged at %d->%d: %v vs %v", i, j, pa, pb)
			}
		}
	}
}
