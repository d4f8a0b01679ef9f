// Command morebench regenerates every table and figure of the thesis'
// evaluation over the simulated testbed. Run it with no arguments for the
// full suite at a moderate scale, or select individual experiments:
//
//	morebench -fig 4.2 -pairs 200 -file 5242880   # paper-scale Fig 4-2
//	morebench -fig 4.7                            # batch-size sweep
//	morebench -table 4.1                          # coding microbenchmarks
//	morebench -fig 5.1                            # unbounded cost gap
//	morebench -table 5.7                          # ETX vs EOTX on the testbed
//	morebench -table overhead                     # MORE header overhead
//
// The figure drivers fan their independent simulation runs out over
// -parallel workers (default: all CPUs); results are byte-identical for any
// worker count, so -parallel only changes wall-clock time.
//
// Output is plain text: one summary table per experiment. With -json the raw
// result structs are emitted as one JSON document instead — one entry per
// experiment with its wall-clock seconds, the per-pair series included — so
// successive PRs can track the perf trajectory mechanically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/gf256"
	"repro/internal/stats"
)

// plotWidth is the width of Fig 4-2's ASCII CDF plot, in columns.
const plotWidth = 64

// cli is the parsed command line.
type cli struct {
	fig, table        string
	pairs, file, runs int
	parallel, telRuns int
	seed              int64
	jsonOut, telOver  bool
	baseline, check   string
	benchSecs         float64
}

// parseFlags registers morebench's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*cli, error) {
	c := &cli{}
	fs.StringVar(&c.fig, "fig", "", "figure to regenerate (4.2, 4.3, 4.4, 4.5, 4.6, 4.7, 5.1); empty runs everything")
	fs.StringVar(&c.table, "table", "", "table to regenerate (4.1, 5.7, overhead)")
	fs.IntVar(&c.pairs, "pairs", 40, "number of random source-destination pairs")
	fs.IntVar(&c.file, "file", 512<<10, "transfer size in bytes (paper: 5242880)")
	fs.Int64Var(&c.seed, "seed", 1, "experiment seed")
	fs.IntVar(&c.runs, "runs", 10, "random runs per point for Fig 4-5 (paper: 40)")
	fs.IntVar(&c.parallel, "parallel", experiments.AutoParallel(), "worker goroutines for the figure drivers (results are identical for any value)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit results as JSON instead of text tables")
	fs.StringVar(&c.baseline, "baseline", "", "write per-kernel GF(256) throughput grid to this JSON file (BENCH_gf256.json)")
	fs.StringVar(&c.check, "check-baseline", "", "compare current GF(256) throughput against this baseline; exit 1 on a >20% drop in portable GB/s or in any SIMD arm's speedup over portable")
	fs.Float64Var(&c.benchSecs, "bench-secs", 0.25, "seconds per benchmark cell for -baseline/-check-baseline")
	fs.BoolVar(&c.telOver, "telemetry-overhead", false, "measure telemetry overhead (off vs full hub); exit 1 if enabled overhead exceeds the 10% bound")
	fs.IntVar(&c.telRuns, "telemetry-runs", 5, "repetitions per mode for -telemetry-overhead (minimum wall clock wins)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return c, nil
}

func main() {
	c, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2) // the flag package has already said why
	}
	os.Exit(run(c, os.Stdout, os.Stderr))
}

// run executes the experiments the command line selects, writing reports to
// stdout and diagnostics to stderr, and returns the exit code: 2 for an
// unknown experiment or kernel, a count below 1 or a benchmark window of no
// time, 1 for a failed gate or an unwritable file.
func run(c *cli, stdout, stderr io.Writer) int {
	for _, f := range []struct {
		name string
		n    int
	}{{"-pairs", c.pairs}, {"-runs", c.runs}, {"-file", c.file}, {"-telemetry-runs", c.telRuns}} {
		if f.n < 1 {
			fmt.Fprintf(stderr, "%s: must be at least 1, got %d\n", f.name, f.n)
			return 2
		}
	}
	if !(c.benchSecs > 0) || math.IsInf(c.benchSecs, 1) {
		fmt.Fprintf(stderr, "-bench-secs: must be a finite number above 0, got %g\n", c.benchSecs)
		return 2
	}

	opts := experiments.DefaultOptions()
	opts.FileBytes = c.file
	opts.Seed = c.seed
	opts.Parallel = c.parallel

	type entry struct {
		Name    string      `json:"name"`
		Key     string      `json:"key"`
		Seconds float64     `json:"seconds"`
		Result  interface{} `json:"result"`
	}
	var report []entry

	all := c.fig == "" && c.table == "" && c.baseline == "" && c.check == "" && !c.telOver
	ran := false
	// experiment runs one experiment; fn returns the raw result for -json
	// and a printer for the text tables.
	experiment := func(name string, want string, fn func() (interface{}, func())) {
		if !(all || c.fig == want || c.table == want) {
			return
		}
		start := time.Now()
		result, print := fn()
		elapsed := time.Since(start)
		if c.jsonOut {
			report = append(report, entry{Name: name, Key: want, Seconds: elapsed.Seconds(), Result: result})
		} else {
			fmt.Fprintf(stdout, "=== %s ===\n", name)
			print()
			fmt.Fprintf(stdout, "[%.2fs]\n\n", elapsed.Seconds())
		}
		ran = true
	}

	topo := experiments.TestbedTopology()
	var fig42 *experiments.ThroughputResult

	experiment("Figure 4-2: unicast throughput CDF (MORE vs ExOR vs Srcr)", "4.2", func() (interface{}, func()) {
		fig42 = experiments.Fig42UnicastThroughput(topo, c.pairs, opts)
		return fig42, func() {
			fmt.Fprint(stdout, fig42.Table())
			cdfs := fig42.CDFs()
			plot := map[rune]*stats.CDF{
				'S': cdfs[experiments.Srcr],
				'E': cdfs[experiments.ExOR],
				'M': cdfs[experiments.MORE],
			}
			xmax := stats.Summarize(fig42.Throughput[experiments.MORE]).Max
			fmt.Fprintln(stdout, "CDF (x: pkt/s, S=Srcr E=ExOR M=MORE):")
			fmt.Fprint(stdout, stats.AsciiPlot(plot, xmax, plotWidth, 16))
		}
	})

	experiment("Figure 4-3: per-pair scatter (opportunistic vs Srcr)", "4.3", func() (interface{}, func()) {
		if fig42 == nil {
			fig42 = experiments.Fig42UnicastThroughput(topo, c.pairs, opts)
		}
		// A half without a sample has no gain: "n/a" in the text, no key
		// in the JSON.
		result := map[string]float64{}
		text := "median gain over Srcr, challenged half vs good half:\n"
		for _, proto := range []experiments.Protocol{experiments.MORE, experiments.ExOR} {
			bottom, top, bottomOK, topOK := fig42.ChallengedGain(proto)
			gain := func(key string, g float64, ok bool) string {
				if !ok {
					return "n/a"
				}
				result[fmt.Sprintf("%v-%s-x", proto, key)] = g
				return fmt.Sprintf("%.2fx", g)
			}
			text += fmt.Sprintf("  %v: %s vs %s\n", proto, gain("challenged", bottom, bottomOK), gain("good", top, topOK))
		}
		return result, func() { fmt.Fprint(stdout, text) }
	})

	experiment("Figure 4-4: spatial reuse (>=4-hop flows, concurrent first/last hop)", "4.4", func() (interface{}, func()) {
		res := experiments.Fig44SpatialReuse(c.pairs/4+3, opts)
		return res, func() {
			fmt.Fprintf(stdout, "spatial-reuse flows (>=4 hops, first/last hop concurrent): %d\n", len(res.Pairs))
			fmt.Fprint(stdout, res.Table())
		}
	})

	experiment("Figure 4-5: multiple flows", "4.5", func() (interface{}, func()) {
		o := opts
		if o.FileBytes > 256<<10 {
			o.FileBytes = 256 << 10 // congested runs are slow; cap per-flow size
		}
		res := experiments.Fig45MultiFlow(topo, 4, c.runs, o)
		return res, func() { fmt.Fprint(stdout, res.Table()) }
	})

	experiment("Figure 4-6: Srcr autorate vs opportunistic routing at 11 Mb/s", "4.6", func() (interface{}, func()) {
		res := experiments.Fig46Autorate(topo, c.pairs/2+4, opts)
		return res, func() { fmt.Fprint(stdout, res.Table()) }
	})

	experiment("Figure 4-7: batch size sweep", "4.7", func() (interface{}, func()) {
		res := experiments.Fig47BatchSize(topo, []int{8, 16, 32, 64, 128}, c.pairs/2+4, opts)
		return res, func() { fmt.Fprint(stdout, res.Table()) }
	})

	experiment("Table 4.1: computational cost of packet operations (K=32, 1500 B)", "4.1", func() (interface{}, func()) {
		res := experiments.Table41CodingCost(32, 1500, 2000)
		return res, func() { fmt.Fprint(stdout, res.Table()) }
	})

	experiment("Header overhead (§4.6)", "overhead", func() (interface{}, func()) {
		res := experiments.HeaderOverhead(32, 1500)
		return res, func() {
			fmt.Fprintf(stdout, "MORE header: %d bytes with K=32 and %d forwarders (%.1f%% of a %d B packet)\n",
				res.HeaderBytes, 10, 100*res.Fraction, res.PktBytes)
		}
	})

	experiment("Figure 5-1 / Prop. 6: unbounded ETX-vs-EOTX cost gap", "5.1", func() (interface{}, func()) {
		result := map[int][]experiments.GapPoint{}
		for _, k := range []int{2, 4, 8, 16} {
			result[k] = experiments.Fig51CostGap(k, []float64{0.3, 0.1, 0.03, 0.01, 0.003})
		}
		return result, func() {
			for _, k := range []int{2, 4, 8, 16} {
				var parts []string
				for _, pt := range result[k] {
					parts = append(parts, fmt.Sprintf("p=%.3f:%.2fx", pt.P, pt.Gap))
				}
				fmt.Fprintf(stdout, "k=%-3d %s\n", k, strings.Join(parts, "  "))
			}
		}
	})

	experiment("Robustness: Fig 4-2 gains across generated topologies", "robustness", func() (interface{}, func()) {
		res := experiments.Fig42AcrossSeeds(4, c.pairs/4+4, opts)
		return res, func() { fmt.Fprint(stdout, res.Table()) }
	})

	experiment("§5.7: ETX vs EOTX forwarder order on the testbed", "5.7", func() (interface{}, func()) {
		res := experiments.Sec57EOTXvsETX(topo, c.parallel)
		return res, func() { fmt.Fprint(stdout, res.Table()) }
	})

	if c.baseline != "" || c.check != "" {
		if code := c.gf256Baseline(stdout, stderr); code != 0 {
			return code
		}
		ran = true
	}

	if c.telOver {
		start := time.Now()
		res := experiments.TelemetryBench(c.telRuns)
		if c.jsonOut {
			report = append(report, entry{Name: "telemetry overhead", Key: "telemetry-overhead",
				Seconds: time.Since(start).Seconds(), Result: res})
		} else {
			fmt.Fprintf(stdout, "=== Telemetry overhead ===\n%s\n", res.Table())
		}
		if bad := experiments.CompareTelemetryBaselines(res); len(bad) > 0 {
			for _, m := range bad {
				fmt.Fprintln(stderr, m)
			}
			return 1
		}
		ran = true
	}

	if !ran {
		fmt.Fprintf(stderr, "unknown experiment: fig=%q table=%q\n", c.fig, c.table)
		return 2
	}
	if c.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]interface{}{
			"seed":     c.seed,
			"pairs":    c.pairs,
			"file":     c.file,
			"parallel": c.parallel,
			"results":  report,
		}); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// gf256Baseline measures the per-kernel GF(256) throughput grid, writes it to
// -baseline and gates it against -check-baseline. It returns the exit code.
func (c *cli) gf256Baseline(stdout, stderr io.Writer) int {
	res := experiments.GF256Bench(gf256.AvailableKernels(), 32, experiments.GF256SizeClasses,
		time.Duration(c.benchSecs*float64(time.Second)))
	if !c.jsonOut {
		fmt.Fprintf(stdout, "=== GF(256) kernel throughput (K=32) ===\n%s\n", res.Table())
	}
	if c.baseline != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(c.baseline, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "-baseline: %v\n", err)
			return 1
		}
	}
	if c.check == "" {
		return 0
	}
	data, err := os.ReadFile(c.check)
	var base experiments.GF256BenchResult
	if err == nil {
		err = json.Unmarshal(data, &base)
	}
	if err != nil {
		fmt.Fprintf(stderr, "-check-baseline: %v\n", err)
		return 1
	}
	// The portable arm gates on absolute GB/s: it is the one arm every host
	// (and every CI runner) executes identically. The SIMD arms gate on their
	// same-run speedup over portable, which holds across hosts where their
	// GB/s does not.
	if bad := experiments.CompareGF256Baselines(&base, res, 0.20, []string{"portable"}); len(bad) > 0 {
		fmt.Fprintf(stderr, "GF(256) throughput regressions beyond 20%%:\n")
		for _, m := range bad {
			fmt.Fprintf(stderr, "  %s\n", m)
		}
		return 1
	}
	fmt.Fprintln(stdout, "baseline check passed: no portable-kernel or SIMD-speedup regression beyond 20%")
	return 0
}
