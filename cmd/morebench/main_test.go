package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gf256"
)

// toy keeps every figure driver to a few small transfers.
var toy = []string{"-pairs", "2", "-file", "4096", "-runs", "1", "-parallel", "2"}

// runCLI parses args as morebench's command line, runs it and returns the
// exit code and both streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	fs := flag.NewFlagSet("morebench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	var out, errOut bytes.Buffer
	code = run(c, &out, &errOut)
	return code, out.String(), errOut.String()
}

// experimentKeys is every experiment a bare command line runs, in order.
var experimentKeys = []string{"4.2", "4.3", "4.4", "4.5", "4.6", "4.7", "4.1", "overhead", "5.1", "robustness", "5.7"}

// TestEveryExperimentRuns runs the whole suite at toy scale, as text and as
// the -json document, and checks each experiment reported once, in order.
func TestEveryExperimentRuns(t *testing.T) {
	code, out, errOut := runCLI(t, toy...)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if n := strings.Count(out, "=== "); n != len(experimentKeys) {
		t.Errorf("text report has %d experiments, want %d:\n%s", n, len(experimentKeys), out)
	}
	for _, want := range []string{"CDF (x: pkt/s, S=Srcr E=ExOR M=MORE):", "challenged half vs good half", "spatial-reuse flows", "MORE header:", "k=16 "} {
		if !strings.Contains(out, want) {
			t.Errorf("text report lacks %q", want)
		}
	}

	code, out, errOut = runCLI(t, append(toy, "-json")...)
	if code != 0 || errOut != "" {
		t.Fatalf("-json: exit %d, stderr %q", code, errOut)
	}
	var doc struct {
		Pairs   int
		Results []struct {
			Key    string
			Result json.RawMessage
		}
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not a document: %v", err)
	}
	if doc.Pairs != 2 || len(doc.Results) != len(experimentKeys) {
		t.Fatalf("document: pairs %d, %d results", doc.Pairs, len(doc.Results))
	}
	for i, r := range doc.Results {
		if r.Key != experimentKeys[i] {
			t.Errorf("result %d is %q, want %q", i, r.Key, experimentKeys[i])
		}
	}
	// Fig 4-2's series are keyed by protocol name (Protocol.MarshalText).
	var fig42 struct{ Throughput map[string][]float64 }
	if err := json.Unmarshal(doc.Results[0].Result, &fig42); err != nil {
		t.Fatal(err)
	}
	for _, p := range []experiments.Protocol{experiments.MORE, experiments.ExOR, experiments.Srcr} {
		if len(fig42.Throughput[p.String()]) != 2 {
			t.Errorf("Fig 4-2 %s series: %v", p, fig42.Throughput[p.String()])
		}
	}
}

// figureHashes pins what every deterministic experiment computes at the toy
// scale: the SHA-256 of its compacted -json result. Table 4.1 times the host
// and is left out; each entry's wall-clock seconds sit outside its result.
// A change that moves a figure's seeds, pairs or runs moves its hash.
var figureHashes = map[string]string{
	"4.2":        "f7dcf3855b0faaa3763e6ded843876c383198eaed7748d553262a68d00511d82",
	"4.3":        "afec05df7354a1f5b6390eaf77a32b1f2574fd7c6250712d85e7ef5642d925c9",
	"4.4":        "951a1d1be15564d98da79898496c7ff1a088c94410e07739e6be673733dd27a3",
	"4.5":        "6b77eed6f7afb735c824b852c81f69dae783fed4bc73964654cbde5b4b56cfa6",
	"4.6":        "d97ad0f835f3f418ce88c4c44eb4a7b8720c03923115fb2c07ad4be54d9c715f",
	"4.7":        "7d631958f0f9b75b1c33011cd3b905956e45c20028d6d7d6ee93d4b9ba4c6626",
	"overhead":   "8461eac520018d7935f4b2ddf9b0c460466a86b365e8c6580362f479f4915716",
	"5.1":        "0fa9ccefd4f7b7c986501269031f129f956954d6bab38ac04c8f57bc2e305793",
	"robustness": "a401c3902d5ffdc28cf0fc4c16731863ad32e7c638d0e75ba5f190a78cc8a16d",
	"5.7":        "fa92b4e4371e223ad11b252867937064d06308a2e143e6995dc97399f7993004",
}

// TestFigureValuesPinned checks each experiment's result against
// figureHashes. The determinism tests only compare serial runs with
// parallel ones; this test fails when a figure computes something else.
func TestFigureValuesPinned(t *testing.T) {
	code, out, errOut := runCLI(t, append(toy, "-json")...)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	var doc struct {
		Results []struct {
			Key    string
			Result json.RawMessage
		}
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, r := range doc.Results {
		if r.Key == "4.1" {
			continue
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, r.Result); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != figureHashes[r.Key] {
			t.Errorf("%s: result hash %s, want %q\n%s", r.Key, got, figureHashes[r.Key], buf.Bytes())
		}
		seen++
	}
	if seen != len(figureHashes) {
		t.Errorf("hashed %d experiments, table pins %d", seen, len(figureHashes))
	}
}

// TestOneExperiment: -fig selects a single experiment, and Fig 4-3 runs its
// own Fig 4-2 when that did not run first.
func TestOneExperiment(t *testing.T) {
	code, out, _ := runCLI(t, append(toy, "-fig", "4.3")...)
	if code != 0 || strings.Count(out, "=== ") != 1 || !strings.Contains(out, "=== Figure 4-3") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

// TestFig43EmptyHalfIsNotAGain: with one pair the challenged half holds no
// sample, so Fig 4-3 prints n/a for it and its -json result has no key for
// it, while the good half keeps its gain.
func TestFig43EmptyHalfIsNotAGain(t *testing.T) {
	one := []string{"-fig", "4.3", "-pairs", "1", "-file", "4096"}
	code, out, _ := runCLI(t, one...)
	if code != 0 || !strings.Contains(out, "  MORE: n/a vs ") || !strings.Contains(out, "  ExOR: n/a vs ") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	code, out, _ = runCLI(t, append(one, "-json")...)
	var doc struct {
		Results []struct{ Result map[string]float64 }
	}
	if err := json.Unmarshal([]byte(out), &doc); code != 0 || err != nil || len(doc.Results) != 1 {
		t.Fatalf("-json: exit %d, %v:\n%s", code, err, out)
	}
	got := doc.Results[0].Result
	if _, ok := got["MORE-challenged-x"]; ok || got["MORE-good-x"] <= 0 || len(got) != 2 {
		t.Errorf("result keys: %v, want only the good halves", got)
	}
}

// TestBadCommandLinesExit2 covers an unknown experiment, an unknown kernel
// and counts below 1, which are refused before any experiment runs.
func TestBadCommandLinesExit2(t *testing.T) {
	for args, want := range map[string]string{
		"-fig 9.9":            `unknown experiment: fig="9.9" table=""`,
		"-gf256 abacus":       "-gf256: unknown or unsupported gf256 kernel",
		"-table coverage":     `table="coverage"`,
		"-fig 4.5 -runs -2":   "-runs: must be at least 1, got -2",
		"-fig 4.2 -pairs 0":   "-pairs: must be at least 1, got 0",
		"-fig 4.2 -pairs -3":  "-pairs: must be at least 1, got -3",
		"-file 0":             "-file: must be at least 1, got 0",
		"-table 4.1 -pairs 0": "-pairs: must be at least 1",
	} {
		code, out, errOut := runCLI(t, strings.Fields(args)...)
		if code != 2 || out != "" || !strings.Contains(errOut, want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 2 and %q", args, code, out, errOut, want)
		}
	}
}

// TestKernelPin: -gf256 pins the arm the run computes on.
func TestKernelPin(t *testing.T) {
	defer gf256.SetKernel(gf256.ActiveKernel())
	code, out, _ := runCLI(t, "-gf256", gf256.KernelPortable, "-table", "overhead")
	if code != 0 || !strings.Contains(out, "MORE header:") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if got := gf256.ActiveKernel(); got != gf256.KernelPortable {
		t.Errorf("active kernel %q, want %q", got, gf256.KernelPortable)
	}
}

// TestGF256BaselineGate writes a throughput grid with -baseline while
// gating against a baseline that must pass (no cells), then against one that
// must fail (a portable cell no host reaches); an unreadable baseline and an
// unwritable grid exit 1. Each case measures the grid once, at 1 ms a cell.
func TestGF256BaselineGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	grid := filepath.Join(dir, "grid.json")
	empty := write("empty.json", `{"k":32,"points":[]}`)
	code, out, errOut := runCLI(t, "-baseline", grid, "-check-baseline", empty, "-bench-secs", "0.001")
	if code != 0 || !strings.HasPrefix(out, "=== GF(256) kernel throughput (K=32) ===") || !strings.Contains(out, "baseline check passed") {
		t.Fatalf("exit %d, stderr %q:\n%s", code, errOut, out)
	}
	var res experiments.GF256BenchResult
	if data, err := os.ReadFile(grid); err != nil || json.Unmarshal(data, &res) != nil || res.Cell("portable", "combine", 1500) <= 0 {
		t.Fatalf("-baseline wrote no portable grid: %v", err)
	}

	fast := write("fast.json", `{"k":32,"points":[{"kernel":"portable","op":"combine","size":1500,"gbps":1e9}]}`)
	code, out, errOut = runCLI(t, "-check-baseline", fast, "-bench-secs", "0.001", "-json")
	if code != 1 || strings.Contains(out, "===") || !strings.Contains(errOut, "portable/combine/1500B") {
		t.Errorf("unreachable baseline: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	for name, path := range map[string]string{
		"-check-baseline": write("bad.json", "{"),
		"-baseline":       filepath.Join(dir, "no", "such", "grid.json"),
	} {
		code, _, errOut := runCLI(t, name, path, "-bench-secs", "0.001")
		if code != 1 || !strings.HasPrefix(errOut, name+": ") {
			t.Errorf("%s %s: exit %d, stderr %q", name, path, code, errOut)
		}
	}
}

// TestTelemetryOverhead runs the overhead guard once per mode. The ratio of
// two single runs is noise on a shared host, so either verdict is accepted;
// what is checked is that the verdict and the report agree.
func TestTelemetryOverhead(t *testing.T) {
	code, out, errOut := runCLI(t, "-telemetry-overhead", "-telemetry-runs", "1")
	if !strings.Contains(out, "=== Telemetry overhead ===") || !strings.Contains(out, "min of 1 runs") {
		t.Errorf("text report:\n%s", out)
	}
	if (code == 1) != strings.Contains(errOut, "exceeds the 10% bound") || code > 1 {
		t.Errorf("exit %d with stderr %q", code, errOut)
	}
	code, out, _ = runCLI(t, "-telemetry-overhead", "-telemetry-runs", "1", "-json")
	if code == 0 && !strings.Contains(out, `"key": "telemetry-overhead"`) {
		t.Errorf("-json document lacks the overhead entry:\n%s", out)
	}
}
