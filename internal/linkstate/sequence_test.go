package linkstate

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/packet"
)

func TestSerialNewer(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{5, 5, false},
		{math.MaxUint32, math.MaxUint32 - 1, true},
		{0, math.MaxUint32, true},          // the wrap boundary
		{math.MaxUint32, 0, false},         // and its mirror
		{100, math.MaxUint32 - 100, true},  // shortly after wrap
		{math.MaxUint32 - 100, 100, false}, // stale pre-wrap replay
		{1 << 31, 0, false},                // exactly half the space: ambiguous, reject
		{(1 << 31) - 1, 0, true},           // just under half: newer
	}
	for _, c := range cases {
		if got := serialNewer(c.a, c.b); got != c.want {
			t.Errorf("serialNewer(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAcceptSurvivesSequenceWraparound(t *testing.T) {
	// An origin whose uint32 sequence wraps (crash loop, or a soak long
	// enough to pass 2³²) must keep getting its LSAs installed; the old
	// plain <= comparison wedged the origin forever.
	a := NewAgent(DefaultConfig(), 4)
	pre := &packet.LSA{Origin: 1, Seq: math.MaxUint32}
	if !a.accept(pre) {
		t.Fatal("first LSA at MaxUint32 rejected")
	}
	wrapped := &packet.LSA{Origin: 1, Seq: 0}
	if !a.accept(wrapped) {
		t.Fatal("post-wrap LSA (seq 0 after MaxUint32) rejected: origin wedged")
	}
	next := &packet.LSA{Origin: 1, Seq: 1}
	if !a.accept(next) {
		t.Fatal("LSA after the wrap rejected")
	}
	if a.accept(pre) {
		t.Fatal("stale pre-wrap replay accepted")
	}
	if a.accept(&packet.LSA{Origin: 1, Seq: 1}) {
		t.Fatal("duplicate sequence accepted")
	}
	if got := a.seqOf(1); got != 1 {
		t.Fatalf("seqOf(1) = %d, want 1", got)
	}
}

// TestAcceptRefusesMalformedLSA: an LSA whose origin or a neighbor lies
// outside the network, or that carries fewer probabilities than neighbors,
// used to be installed and then index out of range when Topology rebuilt
// the graph. accept refuses each shape and leaves the database unmoved.
func TestAcceptRefusesMalformedLSA(t *testing.T) {
	const n = 4
	ids := func(v ...graph.NodeID) []graph.NodeID { return v }
	malformed := map[string]*packet.LSA{
		"origin past the end":        {Origin: n, Seq: 1},
		"origin negative":            {Origin: graph.Broadcast, Seq: 1},
		"neighbor past the end":      {Origin: 1, Seq: 9, Neighbors: ids(0, n), Probs: []uint8{200, 200}},
		"neighbor negative":          {Origin: 1, Seq: 9, Neighbors: ids(-1), Probs: []uint8{200}},
		"fewer probs than neighbors": {Origin: 1, Seq: 9, Neighbors: ids(0, 2), Probs: []uint8{200}},
	}
	for _, installed := range []bool{false, true} {
		a := NewAgent(DefaultConfig(), n)
		if a.knows(1) || a.knows(n) || a.knows(-1) || a.KnownOrigins() != 0 {
			t.Fatal("an empty database claims to know something")
		}
		if installed { // the same refusals once the tables exist and hold an entry
			if !a.accept(&packet.LSA{Origin: 1, Seq: 3, Neighbors: ids(0), Probs: []uint8{255}, TTL: 7}) {
				t.Fatal("well-formed LSA refused")
			}
		}
		version, known := a.Version(), a.KnownOrigins()
		for name, l := range malformed {
			if a.accept(l) {
				t.Errorf("installed=%v: %s: accepted", installed, name)
			}
		}
		if a.Version() != version || a.KnownOrigins() != known {
			t.Errorf("installed=%v: refusals moved the database: version %d -> %d, origins %d -> %d",
				installed, version, a.Version(), known, a.KnownOrigins())
		}
		if a.knows(n) || a.knows(-1) {
			t.Errorf("installed=%v: out-of-range origin reported as known", installed)
		}
		topo := a.Topology() // must not index out of range
		if installed {
			if got := topo.Prob(0, 1); got != 1 || a.entry(1).TTL != 7 || a.seqOf(1) != 3 {
				t.Errorf("the installed entry was disturbed: p=%v ttl=%d seq=%d", got, a.entry(1).TTL, a.seqOf(1))
			}
		}
	}
}
