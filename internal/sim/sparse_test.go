package sim

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// floodOnce makes every node broadcast `frames` frames over the topology and
// returns a digest of everything observable: counters, per-node reception
// and send logs.
func floodOnce(t *testing.T, topo *graph.Topology, cfg Config, frames int) string {
	t.Helper()
	s := New(topo, cfg)
	protos := make([]*testProto, topo.N())
	for i := range protos {
		protos[i] = &testProto{}
		s.Attach(graph.NodeID(i), protos[i])
	}
	for i, p := range protos {
		for k := 0; k < frames; k++ {
			p.enqueue(&Frame{To: graph.Broadcast, Bytes: 400 + 10*i + k})
		}
	}
	end := s.Run(20 * Second)
	digest := fmt.Sprintf("end=%v tx=%d acks=%d deliv=%d coll=%d loss=%d air=%v\n",
		end, s.Counters.Transmissions, s.Counters.MACAcks, s.Counters.Deliveries,
		s.Counters.Collisions, s.Counters.ChannelLosses, s.Counters.AirTime)
	for i, p := range protos {
		digest += fmt.Sprintf("node %d: tx=%d rx=[", i, s.Counters.TxByNode[i])
		for _, f := range p.received {
			digest += fmt.Sprintf("(%d,%d)", f.From, f.Bytes)
		}
		digest += "]\n"
	}
	return digest
}

// TestGeometricTopologyRuns sanity-checks the simulator over a geometric
// generator output: traffic flows, and the run is seed-deterministic.
func TestGeometricTopologyRuns(t *testing.T) {
	topo, _ := graph.ConnectedGeometric(graph.DefaultGeometric(60), 3)
	cfg := DefaultConfig()
	cfg.SenseRange = 84
	a := floodOnce(t, topo, cfg, 2)
	b := floodOnce(t, topo, cfg, 2)
	if a != b {
		t.Fatal("same seed produced different runs")
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	s := New(graph.New(1), DefaultConfig())
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, s.After(Time(i+1)*Millisecond, func() {}))
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for _, e := range evs[:4] {
		e.Cancel()
	}
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending after 4 cancels = %d, want 6", got)
	}
	// Double-cancel must not double-count.
	evs[0].Cancel()
	if got := s.Pending(); got != 6 {
		t.Fatalf("Pending after re-cancel = %d, want 6", got)
	}
	s.Run(Second)
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after run = %d, want 0", got)
	}
}

// TestRelevantSetRateAdjusted locks in the overlap-tracking filter rule:
// with a rate-dependent channel, links below the interference threshold at
// the reference rate can rise above it at robust rates, so they must stay
// in the relevance set (the per-receiver check decides). Without
// RateAdjust the reference-rate pre-filter is exact.
func TestRelevantSetRateAdjusted(t *testing.T) {
	topo := graph.New(3)
	topo.SetLink(0, 1, 0.9)       // 0's receiver
	topo.SetDirected(2, 1, 0.008) // weak interferer at 1, below threshold 0.01
	cfg := DefaultConfig()

	plain := New(topo, cfg)
	if plain.relevantTo(0).Has(2) {
		t.Fatal("rate-independent channel: sub-threshold interferer should be pre-filtered")
	}

	cfg.RateAdjust = AdaptRateScale(graph.RateScale) // Rate2: 0.008^0.5 ≈ 0.089 > 0.01
	adjusted := New(topo, cfg)
	if !adjusted.relevantTo(0).Has(2) {
		t.Fatal("rate-dependent channel: weak interferer must stay relevant")
	}
}
