package experiments

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestDenseVsSparseProtocolRuns is the end-to-end half of the tentpole
// regression: full protocol stacks (MORE, ExOR, Srcr — MAC ACKs,
// interference, capture, carrier sense) must produce byte-identical results
// over the existing dense topologies and their sparse-storage twins.
func TestDenseVsSparseProtocolRuns(t *testing.T) {
	opts := DefaultOptions()
	opts.FileBytes = 48 << 10
	cases := []struct {
		name     string
		topo     *graph.Topology
		src, dst graph.NodeID
	}{
		{"diamond", graph.Diamond(), 0, 2},
		{"testbed", TestbedTopology(), 3, 17},
	}
	for _, tc := range cases {
		for _, proto := range []Protocol{MORE, ExOR, Srcr} {
			pair := Pair{Src: tc.src, Dst: tc.dst}
			r1, c1 := RunWithCounters(tc.topo, proto, []Pair{pair}, opts)
			r2, c2 := RunWithCounters(tc.topo.Sparsify(), proto, []Pair{pair}, opts)
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("%s/%v: results diverge:\ndense:  %+v\nsparse: %+v",
					tc.name, proto, r1, r2)
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Errorf("%s/%v: counters diverge:\ndense:  %+v\nsparse: %+v",
					tc.name, proto, c1, c2)
			}
			if !r1[0].Completed {
				t.Errorf("%s/%v: transfer incomplete", tc.name, proto)
			}
		}
	}
}

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
