package experiments

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestThousandNodeFlow is the acceptance bar: a 1000-node geometric
// topology runs a MORE flow end to end, deterministically.
func TestThousandNodeFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node run skipped in -short mode")
	}
	opts := DefaultOptions()
	opts.FileBytes = 48 << 10 // one K=32 batch
	opts.Seed = 7
	topo, _ := graph.ConnectedGeometric(graph.DefaultGeometric(1000), opts.Seed)
	pairs := RandomPairs(topo, 1, opts.Seed)
	run := func() RunInfo { return RunDetailed(topo, MORE, pairs, opts) }
	a := run()
	if !a.Results[0].Completed {
		t.Fatalf("1000-node flow did not complete: %+v", a.Results[0])
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("1000-node run not deterministic:\n%+v\n%+v", a, b)
	}
}
