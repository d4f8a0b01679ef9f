package scenario

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/routing"
)

// TestCrossExecutor pins the spec → flow compile step against the pair
// runners: the same three testbed flows through scenario.Run and through
// experiments.RunDetailed give equal per-flow results and equal run-wide
// counters. Both sit on one engine, and a run of file transfers ends when
// its last flow completes on either path (Drain is for push traffic).
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
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s flow %d: scenario and pair executors disagree:\n scenario %+v\n pairs    %+v", name, i, got, want)
			}
		}
		if !reflect.DeepEqual(res.Counters, info.Counters) {
			t.Errorf("%s: scenario and pair executors count differently:\n scenario %+v\n pairs    %+v", name, res.Counters, info.Counters)
		}
	}
}

// TestRunMetricAndAutorate covers the two things a moresim flag could say
// and a spec could not: the run-wide forwarder metric, and Srcr with
// autorate (whose presence makes the channel rate-dependent). Each spec run
// equals the pair runner given the same knobs by hand, and differs from the
// default it departs from.
func TestRunMetricAndAutorate(t *testing.T) {
	pair := []experiments.Pair{{Src: 3, Dst: 17}}
	run := func(proto, metric string) (*Spec, *Result) {
		spec, err := Parse([]byte(sprintf(`{
  "name": "knobs", "seed": 1, "deadline_s": 600, "metric": %q,
  "topology": {"kind": "testbed"},
  "flows": [{"name": "a", "protocol": %q, "src": 3, "dst": 17, "traffic": {"model": "file", "bytes": 65536}}]
}`, metric, proto)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return spec, res
	}
	_, etx := run("more", "etx")
	spec, eotx := run("more", "eotx")
	opts := spec.Options()
	if opts.Metric != routing.OrderEOTX {
		t.Fatalf("metric eotx compiled to %v", opts.Metric)
	}
	opts.FileBytes = 65536
	want := experiments.RunDetailed(experiments.TestbedTopology(), experiments.MORE, pair, opts).Results[0]
	if got := eotx.Flows[0].Result; !got.Completed || got.End != want.End {
		t.Errorf("eotx spec run ends at %v (completed=%v), pair runner at %v", got.End, got.Completed, want.End)
	}
	if eotx.Flows[0].Result.End == etx.Flows[0].Result.End {
		t.Errorf("metric eotx changed nothing: both runs end at %v", etx.Flows[0].Result.End)
	}

	_, fixed := run("srcr", "")
	spec, auto := run("srcr-auto", "")
	opts = spec.Options()
	if !opts.RateDependentChannel {
		t.Fatal("a srcr-auto flow did not make the channel rate-dependent")
	}
	opts.FileBytes = 65536
	want = experiments.RunDetailed(experiments.TestbedTopology(), experiments.SrcrAutorate, pair, opts).Results[0]
	if got := auto.Flows[0].Result; !got.Completed || got.End != want.End {
		t.Errorf("srcr-auto spec run ends at %v (completed=%v), pair runner at %v", got.End, got.Completed, want.End)
	}
	if len(auto.Counters.TxByRate) <= len(fixed.Counters.TxByRate) {
		t.Errorf("autorate used rates %v, fixed-rate srcr %v: want more than the fixed rate's", auto.Counters.TxByRate, fixed.Counters.TxByRate)
	}
}
