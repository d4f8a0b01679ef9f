package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// runCLI parses args as moresim's command line, runs it and returns the exit
// code and both streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(parse(t, args...), &out, &errOut)
	return code, out.String(), errOut.String()
}

// toy is a transfer that takes a few milliseconds: 6 packets over the
// three-node diamond.
var toy = []string{"-topo", "diamond", "-file", "8192"}

// toyArgs is the toy command line with extra flags appended.
func toyArgs(extra ...string) []string { return append(append([]string(nil), toy...), extra...) }

// writeSpec stores a spec document in a temporary file and returns its path.
func writeSpec(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSingleRunReport covers the one-run report in text and as the result
// document, and the lines only some runs print: a spec's description,
// fairness over several flows, the congestion layer, the measurement plane.
// A spec file run with -json prints its golden byte for byte: the document
// TestGoldenScenarios pins is the one the command prints.
func TestSingleRunReport(t *testing.T) {
	code, out, errOut := runCLI(t, toy...)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, want := range []string{"scenario: moresim (3 nodes, seed 1, state oracle, cc none)\n",
		"flow-1       more      file     0->2        6/6 ", "medium: 12 data tx", "digest: "} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}

	code, out, errOut = runCLI(t, toyArgs("-json")...)
	if code != 0 || errOut != "" {
		t.Fatalf("-json: exit %d, stderr %q", code, errOut)
	}
	if _, err := scenario.ValidateResult([]byte(out)); err != nil {
		t.Errorf("-json stdout is not a result document: %v", err)
	}

	code, out, _ = runCLI(t, "-scenario", filepath.Join("..", "..", "scenarios", "push-choke.json"))
	if code != 0 {
		t.Fatalf("push-choke: exit %d", code)
	}
	for _, want := range []string{"\n  The CHOKe trigger scenario", "\nfairness: Jain(throughput)", "\ncongestion: 8500 pushed"} {
		if !strings.Contains(out, want) {
			t.Errorf("push-choke report lacks %q:\n%s", want, out)
		}
	}
	code, out, _ = runCLI(t, "-scenario", filepath.Join("..", "..", "scenarios", "push-choke.json"), "-json")
	golden, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "golden", "push-choke.json"))
	if err != nil || code != 0 || out != string(golden) {
		t.Errorf("push-choke -json: exit %d, %v; stdout is not the golden document", code, err)
	}

	learned := writeSpec(t, `{"name":"learned-diamond","seed":1,"deadline_s":60,"topology":{"kind":"diamond"},
		"state":{"mode":"learned"},"flows":[{"name":"bulk","protocol":"more","dst":2,"traffic":{"model":"file","bytes":8192}}]}`)
	code, out, _ = runCLI(t, "-scenario", learned)
	if code != 0 || !strings.Contains(out, "\nmeasurement plane: converged at ") {
		t.Errorf("learned spec: exit %d:\n%s", code, out)
	}
}

// TestTableModes covers the reducers of the modes that run several specs,
// as text and as JSON rows.
func TestTableModes(t *testing.T) {
	code, out, _ := runCLI(t, toyArgs("-proto", "all")...)
	if code != 0 || !strings.HasPrefix(out, "pair 0 -> 2, 8192 B file:\n") || strings.Count(out, "true") != 4 {
		t.Errorf("-proto all: exit %d:\n%s", code, out)
	}
	text := out
	code, out, _ = runCLI(t, toyArgs("-proto", "all", "-json")...)
	var cmp []comparisonRow
	if err := json.Unmarshal([]byte(out), &cmp); code != 0 || err != nil || len(cmp) != 4 {
		t.Fatalf("-proto all -json: exit %d, %v:\n%s", code, err, out)
	}
	for _, row := range cmp {
		line := fmt.Sprintf("%-14s %10.1f %10d %8v %12v\n", row.Protocol, row.Throughput, row.Transmissions, row.Done, row.AirTime)
		if row.Src != 0 || row.Dst != 2 || row.FileBytes != 8192 || !row.Done || !strings.Contains(text, line) {
			t.Errorf("-proto all -json row %+v is not a row of the text table:\n%s", row, text)
		}
	}

	code, out, _ = runCLI(t, toyArgs("-state", "learned")...)
	if code != 0 || !strings.Contains(out, "protocol: more, state: learned (vs oracle), 1 flow(s)\n") ||
		!strings.Contains(out, "\ngap: throughput x") {
		t.Errorf("-state learned: exit %d:\n%s", code, out)
	}
	code, out, _ = runCLI(t, toyArgs("-state", "learned", "-json")...)
	var gap struct {
		Nodes int
		Gap   struct {
			Protocol string
			Flows    int
		}
	}
	if err := json.Unmarshal([]byte(out), &gap); code != 0 || err != nil || gap.Nodes != 3 || gap.Gap.Protocol != "more" || gap.Gap.Flows != 1 {
		t.Errorf("-state learned -json: exit %d, %v: %+v", code, err, gap)
	}

	scale := []string{"-scale", "20,30", "-file", "8192"}
	code, out, _ = runCLI(t, scale...)
	if code != 0 || !strings.HasPrefix(out, "scaling sweep: proto=more flows=1") || strings.Count(out, "\nnone ") != 2 {
		t.Errorf("-scale: exit %d:\n%s", code, out)
	}
	code, out, _ = runCLI(t, append(scale, "-json")...)
	var rows []scaleRow
	if err := json.Unmarshal([]byte(out), &rows); code != 0 || err != nil || len(rows) != 2 || rows[1].Nodes != 30 {
		t.Errorf("-scale -json: exit %d, %v: %+v", code, err, rows)
	}
}

// TestVerboseAndTrace: the plan and the timeline go to stdout before the
// report, and to stderr next to -json, where stdout is the document alone.
func TestVerboseAndTrace(t *testing.T) {
	code, out, _ := runCLI(t, toyArgs("-verbose", "-trace")...)
	plan := "topology: 3 nodes, 3 usable links"
	if code != 0 || !strings.HasPrefix(out, plan) || !strings.Contains(out, "\nplan 0->2 (ETX order)") ||
		!strings.Contains(out, "\nbest ETX path: [0 1 2]") || !strings.Contains(out, "\nscenario: moresim") {
		t.Errorf("text: exit %d:\n%s", code, out)
	}
	code, out, errOut := runCLI(t, toyArgs("-verbose", "-trace", "-json")...)
	if _, err := scenario.ValidateResult([]byte(out)); code != 0 || err != nil {
		t.Errorf("-json: exit %d, stdout is not the document: %v", code, err)
	}
	if !strings.HasPrefix(errOut, plan) || !strings.Contains(errOut, "\n  node 1 ") {
		t.Errorf("-json: stderr lacks the plan:\n%s", errOut)
	}
}

// TestTelemetryArtifacts: -metrics and -trace-out write their files, and
// "-metrics -" puts the report on stdout ahead of the run's own.
func TestTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	code, out, _ := runCLI(t, toyArgs("-metrics", "-", "-trace-out", trace, "-deadline-ms", "100")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var report telemetry.Report
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&report); err != nil || len(report.Flows) != 1 {
		t.Errorf("stdout does not open with the metrics report: %v", err)
	}
	var events []map[string]any
	if data, err := os.ReadFile(trace); err != nil || json.Unmarshal(data, &events) != nil || len(events) == 0 {
		t.Errorf("-trace-out wrote no Chrome trace: %v", err)
	}

	missing := filepath.Join(dir, "no", "such", "dir", "x.json")
	for _, name := range []string{"-metrics", "-trace-out"} {
		code, out, errOut := runCLI(t, toyArgs(name, missing)...)
		if code != 1 || out != "" || !strings.HasPrefix(errOut, name+": ") {
			t.Errorf("%s to a missing directory: exit %d, stdout %q, stderr %q", name, code, out, errOut)
		}
	}
}

// TestStallDumpsPrintLive: a repair watchdog that fires under a hub prints
// its flight-recorder post-mortem on stderr — here ExOR's, on the golden
// that runs its stalled-batch repair.
func TestStallDumpsPrintLive(t *testing.T) {
	code, _, errOut := runCLI(t, "-scenario", filepath.Join("..", "..", "scenarios", "exor-repair-learned.json"),
		"-metrics", filepath.Join(t.TempDir(), "m.json"))
	if code != 0 || !strings.Contains(errOut, "moresim: batch-stall at node 3 (flow 1, batch ") {
		t.Errorf("exit %d, stderr:\n%s", code, errOut)
	}
}

// signalWriter is a buffer that signals its first write.
type signalWriter struct {
	bytes.Buffer
	wrote chan struct{}
}

func (w *signalWriter) Write(p []byte) (int, error) {
	n, err := w.Buffer.Write(p)
	select {
	case w.wrote <- struct{}{}:
	default:
	}
	return n, err
}

// TestProgressHeartbeat: the heartbeat prints while the run lasts and not at
// all without -progress or a hub.
func TestProgressHeartbeat(t *testing.T) {
	w := &signalWriter{wrote: make(chan struct{}, 1)}
	stop := telemetryCLI{progressS: 0.001}.startProgress(telemetry.NewHub(telemetry.Config{}), w)
	select {
	case <-w.wrote:
	case <-time.After(10 * time.Second):
		t.Error("no heartbeat within 10 s of 1 ms ticks")
	}
	stop() // waits for the heartbeat goroutine: its writes are done
	if !strings.HasPrefix(w.String(), "moresim: ") || !strings.Contains(w.String(), " events (") {
		t.Errorf("heartbeat printed %q", w.String())
	}
	var quiet bytes.Buffer
	telemetryCLI{progressS: 0.001}.startProgress(nil, &quiet)()
	telemetryCLI{}.startProgress(telemetry.NewHub(telemetry.Config{}), &quiet)()
	if quiet.Len() != 0 {
		t.Errorf("heartbeat without a hub or -progress printed %q", quiet.String())
	}
}

// TestProfiles: -cpuprofile and -memprofile write profiles of the run; a
// profile that cannot be created fails the command before anything is
// reported.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if code, _, errOut := runCLI(t, toyArgs("-cpuprofile", cpu, "-memprofile", mem)...); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no profile written (%v)", path, err)
		}
	}
	missing := filepath.Join(dir, "no", "such", "dir", "x.out")
	for _, name := range []string{"-cpuprofile", "-memprofile"} {
		code, out, errOut := runCLI(t, toyArgs(name, missing)...)
		if code != 1 || out != "" || !strings.HasPrefix(errOut, name+": ") {
			t.Errorf("%s to a missing directory: exit %d, stdout %q, stderr %q", name, code, out, errOut)
		}
	}
}

// TestExitCodes: 2 for what does not compile to a run, 1 for a flow that
// misses its schedule (the report still prints).
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		err  string
	}{
		{[]string{"-flows", "0"}, 2, "-flows must be >= 1, got 0"},
		{[]string{"-scale", "60", "-flows", "-3"}, 2, "-flows must be >= 1, got -3"},
		{[]string{"-deadline-ms", "-5"}, 2, "-deadline-ms must be a finite number >= 0"},
		{[]string{"-scenario", "x.json", "-progress", "-1"}, 2, "-progress must be a finite number >= 0"},
		{[]string{"-k", "1"}, 2, "batch must be >= 2"},
		{toyArgs("-file", "65536", "-sim-deadline", "0.01"), 1, ""},
	} {
		code, _, errOut := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(errOut, tc.err) {
			t.Errorf("%v: exit %d, stderr %q; want %d and %q", tc.args, code, errOut, tc.code, tc.err)
		}
	}
}

// TestPrintJSONRefusesNaN: a value JSON cannot encode fails the run instead
// of printing an empty document.
func TestPrintJSONRefusesNaN(t *testing.T) {
	var buf bytes.Buffer
	if err := printJSON(&buf, math.NaN()); err == nil || !strings.Contains(err.Error(), "-json") || buf.Len() != 0 {
		t.Errorf("printJSON(NaN) = %v, wrote %q", err, buf.String())
	}
}
