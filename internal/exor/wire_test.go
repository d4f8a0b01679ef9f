package exor

import (
	"testing"

	"repro/internal/graph"
)

// TestWireBytesAllocatesNothing: sizing a data or cleanup frame is
// arithmetic on lengths (it used to build a header to ask it).
func TestWireBytesAllocatesNothing(t *testing.T) {
	data := &DataMsg{BMap: make([]uint8, 32), Prio: make([]graph.NodeID, 12), Payload: make([]byte, 1500)}
	if got, want := data.wireBytes(), 14+32+12+1500; got != want {
		t.Fatalf("DataMsg.wireBytes = %d, want %d", got, want)
	}
	cleanup := &CleanupMsg{Payload: make([]byte, 1500)}
	if got, want := cleanup.wireBytes(), 10+2*4+1500; got != want {
		t.Fatalf("CleanupMsg.wireBytes = %d, want %d", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { _ = data.wireBytes() + cleanup.wireBytes() }); a != 0 {
		t.Errorf("wireBytes allocates %v times per call", a)
	}
}
