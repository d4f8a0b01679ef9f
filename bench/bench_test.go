package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// contractNames returns the metric names BENCHMARK.json promises, by kind.
func contractNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// quick runs the self-test workload the way -quick does.
func quick(t *testing.T, cfg runConfig) *report {
	t.Helper()
	cfg.root = ".."
	rep, err := runWorkload(quickWorkload, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkMetrics(t *testing.T, rep *report, names []string, nonZero bool) {
	t.Helper()
	if len(rep.Metrics) != len(names) {
		t.Errorf("run reports %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := rep.Metrics[n]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", n)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite: %v", n, m.Value)
		case nonZero && m.Value == 0:
			t.Errorf("end-to-end metric %s is 0", n)
		case m.Unit == "":
			t.Errorf("metric %s has no unit", n)
		}
	}
}

func TestQuickRunReportsEveryEndToEndMetric(t *testing.T) {
	endToEnd, _ := contractNames(t)
	rep := quick(t, runConfig{maxReps: 1})
	if !rep.Correct || rep.Failed != 0 || rep.Attempted != 1 {
		t.Errorf("quick run: correct=%v failed=%d attempted=%d, want a clean single flow", rep.Correct, rep.Failed, rep.Attempted)
	}
	checkMetrics(t, rep, endToEnd, true)
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	_, perLayer := contractNames(t)
	rep := quick(t, runConfig{seconds: 60, maxReps: 3, trace: true})
	if !rep.Correct {
		t.Errorf("traced quick run failed %d of %d operations", rep.Failed, rep.Attempted)
	}
	checkMetrics(t, rep, perLayer, false)
	shares := 0.0
	for _, l := range cpuLayers {
		shares += rep.Metrics["cpu."+l].Value
	}
	if math.Abs(shares-100) > 0.5 {
		t.Errorf("cpu.* shares sum to %.2f, want 100", shares)
	}
}

func TestWrongDigestFailsEveryOperation(t *testing.T) {
	rep := quick(t, runConfig{maxReps: 1, golden: strings.Repeat("0", 64)})
	if rep.Correct || rep.Failed != rep.Attempted || rep.Attempted == 0 {
		t.Errorf("wrong expected digest: correct=%v failed=%d attempted=%d, want every operation failed",
			rep.Correct, rep.Failed, rep.Attempted)
	}
}

func TestChangedSpecIsRefused(t *testing.T) {
	w := quickWorkload
	w.specSHA256 = strings.Repeat("0", 64)
	_, err := newRunner(w, "..")
	if err == nil || !strings.Contains(err.Error(), "re-pin in a benchmark PR") {
		t.Errorf("changed spec: got %v, want a re-pin error", err)
	}
}

func TestEveryWorkloadIsInTheContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// TestDriverInvocation runs the command line the benchmark driver uses and
// checks the shape of the last line.
func TestDriverInvocation(t *testing.T) {
	t.Chdir("..")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--quick", "--seed", "3", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want exactly 4", len(last))
	}
}

func TestAttribution(t *testing.T) {
	const sim = "/root/repo/internal/sim/"
	cases := []struct {
		name   string
		frames []frame // leaf first
		want   string
	}{
		{"heap under sim", []frame{
			{"container/heap.down", "/usr/local/go/src/container/heap/heap.go"},
			{"container/heap.Pop", "/usr/local/go/src/container/heap/heap.go"},
			{"repro/internal/sim.(*Simulator).RunWhile", sim + "sim.go"},
			{"main.main", "/root/repo/bench/main.go"},
		}, "sim.eventq"},
		{"runtime leaf under linkstate", []frame{
			{"runtime.mapassign", "/usr/local/go/src/runtime/map.go"},
			{"repro/internal/linkstate.(*Agent).accept", "/root/repo/internal/linkstate/linkstate.go"},
			{"repro/internal/sim.(*Node).deliver", sim + "node.go"},
		}, "linkstate"},
		{"gc worker", []frame{
			{"runtime.scanobject", "/usr/local/go/src/runtime/mgcmark.go"},
			{"runtime.gcDrain", "/usr/local/go/src/runtime/mgcmark.go"},
			{"runtime.gcBgMarkWorker.func2", "/usr/local/go/src/runtime/mgc.go"},
			{"runtime.systemstack", "/usr/local/go/src/runtime/asm_amd64.s"},
		}, "rt.gc"},
		{"event.go", []frame{{"repro/internal/sim.eventHeap.Less", sim + "event.go"}}, "sim.eventq"},
		{"mac.go", []frame{{"repro/internal/sim.(*Node).armDIFS", sim + "mac.go"}}, "sim.mac"},
		{"rest of sim", []frame{{"repro/internal/sim.(*Simulator).endTx", sim + "sim.go"}}, "sim.medium"},
		{"both executors", []frame{{"repro/internal/scenario.RunWith", "run.go"}}, "executor"},
		{"assembly kernel", []frame{{"repro/internal/gf256.mulAddGFNI", "kernel_amd64.s"}}, "gf256"},
		{"no repo frame", []frame{{"runtime.mcall", "asm_amd64.s"}}, "rt.other"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("%s: attributed to %s, want %s", c.name, got, c.want)
		}
	}
}

var spinSink uint64

// spin burns CPU so the profiler has something to sample.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := uint64(0); i < 1<<16; i++ {
			spinSink += i * i
		}
	}
}

func TestProfileReader(t *testing.T) {
	samples, err := cpuProfile(func() error { spin(200 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.frames {
			if strings.HasSuffix(f.fn, ".spin") && strings.HasSuffix(f.file, "bench_test.go") && s.count > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample of %d names spin in bench_test.go", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}
