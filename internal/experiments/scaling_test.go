package experiments

import (
	"math"
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

// TestScalingPointSmoke runs one moderate geometric point end to end.
func TestScalingPointSmoke(t *testing.T) {
	opts := DefaultOptions()
	opts.FileBytes = 48 << 10
	pt := ScalingSweep(ScalingConfig{NodeCounts: []int{150}, Flows: 2, Drop: 0.1, Protocol: MORE, Opts: opts})[0]
	if pt.Nodes != 150 {
		t.Fatalf("nodes = %d", pt.Nodes)
	}
	if pt.Completed != 2 {
		t.Fatalf("completed %d/2 flows: %+v", pt.Completed, pt)
	}
	if pt.Throughput <= 0 || pt.TxPerPacket <= 0 || math.IsNaN(pt.TxPerPacket) {
		t.Fatalf("degenerate metrics: %+v", pt)
	}
	if pt.UsableLinks <= 0 || pt.MeanDegree <= 0 {
		t.Fatalf("topology stats missing: %+v", pt)
	}
}

// TestScalingSweepDeterministicAcrossWorkers locks in the scaling driver's
// parallel determinism: any worker count produces identical points (modulo
// wall-clock, which is zeroed before comparison).
func TestScalingSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultScalingConfig()
	cfg.NodeCounts = []int{60, 90}
	cfg.Flows = 1
	cfg.Opts.FileBytes = 24 << 10
	cfg.Opts.Seed = 3

	run := func(workers int) []ScalingPoint {
		c := cfg
		c.Opts.Parallel = workers
		pts := ScalingSweep(c)
		for i := range pts {
			pts[i].WallClock = 0
		}
		return pts
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sweep depends on worker count:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	for _, pt := range serial {
		if pt.Completed != 1 {
			t.Fatalf("point did not complete: %+v", pt)
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
	run := func() ScalingPoint {
		pt := ScalingSweep(ScalingConfig{NodeCounts: []int{1000}, Flows: 1, Protocol: MORE, Opts: opts})[0]
		pt.WallClock = 0
		return pt
	}
	a := run()
	if a.Completed != 1 {
		t.Fatalf("1000-node flow did not complete: %+v", a)
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("1000-node run not deterministic:\n%+v\n%+v", a, b)
	}
}
