package exor

import "testing"

// TestFixedParameters pins ExOR's 90% cleanup rule and the destination's
// ten-fold batch-map gossip (Biswas & Morris).
func TestFixedParameters(t *testing.T) {
	if cleanupFraction != 0.9 {
		t.Errorf("cleanupFraction = %v, want 0.9", cleanupFraction)
	}
	if dstGossipRepeat != 10 {
		t.Errorf("dstGossipRepeat = %v, want 10", dstGossipRepeat)
	}
}
