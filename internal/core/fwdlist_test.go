package core

import (
	"math/rand"
	"testing"

	"repro/internal/coding"
	"repro/internal/graph"
)

// scanIndex and scanSig are the list questions answered the way every
// caller answered them before FwdList: by walking the entries.
func scanIndex(entries []FwdEntry, id graph.NodeID) int {
	for i, e := range entries {
		if e.Node == id {
			return i
		}
	}
	return -1
}

func scanSig(entries []FwdEntry) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range entries {
		h ^= uint64(e.Node)
		h *= 1099511628211
	}
	return h
}

// TestFwdListIndexMatchesScan: for random lists — empty, the testbed's few
// entries, the hundreds a 512- or 2000-node mesh produces — Index agrees
// with a scan for every listed ID, for unlisted IDs inside and above the
// table, and for negative IDs; Sig is the FNV-1a of the ordering.
func TestFwdListIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		size := []int{0, 1, 4, 10, 91, 411}[trial%6]
		ids := rng.Perm(2000)
		entries := make([]FwdEntry, size)
		for i := range entries {
			entries[i] = FwdEntry{Node: graph.NodeID(ids[i]), Credit: rng.Float64()}
		}
		l := NewFwdList(entries)
		if got, want := l.Sig(), scanSig(entries); got != want {
			t.Fatalf("trial %d: Sig = %#x, scan %#x", trial, got, want)
		}
		probe := []graph.NodeID{graph.Broadcast, -7, 0, 1999, 2000, 1 << 30}
		for _, e := range entries {
			probe = append(probe, e.Node)
		}
		for i := 0; i < 50; i++ {
			probe = append(probe, graph.NodeID(rng.Intn(2100)))
		}
		for _, id := range probe {
			if got, want := l.Index(id), scanIndex(entries, id); got != want {
				t.Fatalf("trial %d (%d entries): Index(%d) = %d, scan %d", trial, size, id, got, want)
			}
		}
	}
}

// TestFwdListRejectsMalformed: NewFwdList builds every forwarder list and
// its position table, one slot per node ID. A node listed twice would make
// its position ambiguous and a negative ID has no slot; no plan produces
// either, so NewFwdList panics rather than build a table Index would answer
// wrongly from.
func TestFwdListRejectsMalformed(t *testing.T) {
	for name, entries := range map[string][]FwdEntry{
		"duplicate":     {{Node: 3}, {Node: 9}, {Node: 3}},
		"negative node": {{Node: 3}, {Node: graph.Broadcast}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewFwdList accepted %v", name, entries)
				}
			}()
			NewFwdList(entries)
		}()
	}
}

// TestWireBytesAllocatesNothing: sizing a data frame is arithmetic on
// lengths, whatever the list length (it used to build a header to ask it).
func TestWireBytesAllocatesNothing(t *testing.T) {
	entries := make([]FwdEntry, 378)
	for i := range entries {
		entries[i].Node = graph.NodeID(i)
	}
	m := &DataMsg{
		Packet:     &coding.Packet{Vector: make([]byte, 32), Payload: make([]byte, 1500)},
		Forwarders: NewFwdList(entries),
	}
	const want = 8 + 32 + 3*378 + 1500
	if got := m.wireBytes(); got != want {
		t.Fatalf("wireBytes = %d, want %d", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { _ = m.wireBytes() }); a != 0 {
		t.Errorf("wireBytes allocates %v times per call", a)
	}
}
