// Command bench is the repository's end-to-end benchmark: four pinned
// workloads, each run in a process of its own, measured on two clocks —
// host (what the simulator costs) and sim (what the modelled network did)
// — with every run's CPU attributed to the layer that spent it. See
// README.md in this directory for the metrics and how to read them.
//
//	go run ./bench                 every workload, timed
//	go run ./bench -trace 1        ... and traced (per-layer metrics)
//	go run ./bench -layers         each layer alone, on fixed inputs
//	go run ./bench -aa             two sets of runs of this commit, compared
//	go run ./bench -workload fig4-2 -seed 2 -seconds 25 -trace 0
//
// The last form is what the benchmark driver calls; its last output line
// is one JSON object with the run's verdict and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchmarkFile is the benchmark's contract at the repo root: the bound of
// every end-to-end metric and the length of a run.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload in this process and end with its JSON line")
	seed := fs.Int64("seed", 0, "seed of the random realizations (0: the workload's pinned seed)")
	seconds := fs.Float64("seconds", 0, "how long one run measures (0: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	layers := fs.Bool("layers", false, "run the layer drivers instead of the workloads")
	aa := fs.Bool("aa", false, "run every workload as A, B, A, B and compare the two sets")
	quick := fs.Bool("quick", false, "self-test: one execution of scenarios/paper-testbed.json")
	out := fs.String("o", "", "also write the results as one JSON document to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; -trace takes 0 or 1")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *layers {
		doc := map[string]any{"environment": environment(), "layers": runLayers(stdout)}
		if err := writeDocument(*out, doc); err != nil {
			return fail(err)
		}
		return 0
	}

	contract, err := readBenchmarkFile()
	if err != nil {
		return fail(err)
	}
	if *seconds == 0 {
		*seconds = float64(contract.RunSeconds)
	}
	cfg := runConfig{root: ".", seed: *seed, seconds: *seconds, trace: *trace == 1}

	if *quick || *name != "" {
		w := quickWorkload
		if *quick {
			cfg.maxReps = 1
		} else if w, err = findWorkload(*name); err != nil {
			return fail(err)
		}
		rep, err := runWorkload(w, cfg, stdout)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(rep)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Correct {
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	child := func(w workload, traced bool) (*report, error) {
		return runChild(exe, w, cfg.seed, cfg.seconds, traced, stdout, stderr)
	}
	env := environment()
	fmt.Fprintf(stdout, "# %s, GOMAXPROCS %d, %s\n", env["go"], env["gomaxprocs"], env["cpu"])
	if *aa {
		ok, err := runAA(contract, child, stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	doc := map[string]any{"environment": env, "seed": cfg.seed, "seconds": cfg.seconds}
	results := map[string]any{}
	correct := true
	for _, w := range workloads {
		entry := map[string]any{"why": w.why}
		rep, err := child(w, false)
		if err != nil {
			return fail(err)
		}
		entry["end_to_end"] = rep
		correct = correct && rep.Correct
		if cfg.trace {
			if rep, err = child(w, true); err != nil {
				return fail(err)
			}
			entry["per_layer"] = rep
			correct = correct && rep.Correct
		}
		results[w.name] = entry
	}
	doc["workloads"] = results
	if err := writeDocument(*out, doc); err != nil {
		return fail(err)
	}
	if !correct {
		fmt.Fprintln(stderr, "bench: a workload's outputs were wrong")
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, passes its report lines
// through, and returns the report on its last line.
func runChild(exe string, w workload, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) (*report, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = stderr
	output, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(output), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return nil, fmt.Errorf("%s: last line is not a report: %w", w.name, err)
	}
	return &rep, nil
}

// environment is what a reader needs to place host-clock numbers.
func environment() map[string]any {
	cpu := "unknown CPU"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"goos": runtime.GOOS, "goarch": runtime.GOARCH}
}

func writeDocument(path string, doc map[string]any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAA measures this commit against itself: every workload runs four
// times, A, B, A, B; a set's value of a metric is the mean of its two
// runs, and the gap between the sets must stay within the metric's bound.
func runAA(contract *benchmarkFile, child func(workload, bool) (*report, error), stdout io.Writer) (bool, error) {
	ok := true
	var table bytes.Buffer
	fmt.Fprintf(&table, "\n%-14s %-12s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	for _, w := range workloads {
		var sets [2][]*report
		for i := 0; i < 4; i++ {
			rep, err := child(w, false)
			if err != nil {
				return false, err
			}
			if !rep.Correct {
				ok = false
			}
			sets[i%2] = append(sets[i%2], rep)
		}
		for _, m := range contract.EndToEnd {
			mean := func(reps []*report) float64 {
				return (reps[0].Metrics[m.Name].Value + reps[1].Metrics[m.Name].Value) / 2
			}
			a, b := mean(sets[0]), mean(sets[1])
			// worse is how far B reads worse than A, as a share of A.
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > m.Bound || math.IsNaN(worse) {
				verdict = "  OUT OF BOUND"
				ok = false
			}
			fmt.Fprintf(&table, "%-14s %-12s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n",
				w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	_, err := stdout.Write(table.Bytes())
	return ok, err
}
