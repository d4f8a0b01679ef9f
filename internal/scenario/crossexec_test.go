package scenario

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// TestCrossExecutor pins the spec → flow compile step against the pair
// runners: the same three testbed flows through scenario.Run and through
// experiments.RunDetailed give equal per-flow results. Both sit on one
// engine; the scenario path's post-transfer drain is the only divergence,
// and all it can move is the transmission count (frames still queued when
// the last flow finished go out during the drain).
func TestCrossExecutor(t *testing.T) {
	pairs := []experiments.Pair{{Src: 1, Dst: 7}, {Src: 7, Dst: 19}, {Src: 1, Dst: 18}}
	protos := map[string]experiments.Protocol{
		"more": experiments.MORE, "exor": experiments.ExOR, "srcr": experiments.Srcr,
	}
	for name, proto := range protos {
		spec, err := Parse([]byte(sprintf(`{
  "name": "cross-%[1]s",
  "seed": 1,
  "deadline_s": 600,
  "topology": {"kind": "testbed"},
  "flows": [
    {"name": "a", "protocol": "%[1]s", "src": 1, "dst": 7, "traffic": {"model": "file", "bytes": 32768}},
    {"name": "b", "protocol": "%[1]s", "src": 7, "dst": 19, "traffic": {"model": "file", "bytes": 32768}},
    {"name": "c", "protocol": "%[1]s", "src": 1, "dst": 18, "traffic": {"model": "file", "bytes": 32768}}
  ]
}`, name)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := spec.Options()
		opts.FileBytes = 32768
		info := experiments.RunDetailed(experiments.TestbedTopology(), proto, pairs, opts)
		for i, want := range info.Results {
			got := res.Flows[i].Result
			if !got.Completed {
				t.Errorf("%s flow %d incomplete: %v", name, i, got)
			}
			got.Transmissions, want.Transmissions = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s flow %d: scenario and pair executors disagree:\n scenario %+v\n pairs    %+v", name, i, got, want)
			}
		}
	}
}
