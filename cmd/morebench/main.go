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
// Output is plain text: one summary table per experiment plus TSV series
// (CDF points) when -tsv is set. With -json the raw result structs are
// emitted as one JSON document instead — one entry per experiment with its
// wall-clock seconds — so successive PRs can track the perf trajectory
// mechanically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/gf256"
	"repro/internal/stats"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to regenerate (4.2, 4.3, 4.4, 4.5, 4.6, 4.7, 5.1); empty runs everything")
		table    = flag.String("table", "", "table to regenerate (4.1, 5.7, overhead)")
		pairs    = flag.Int("pairs", 40, "number of random source-destination pairs")
		file     = flag.Int("file", 512<<10, "transfer size in bytes (paper: 5242880)")
		seed     = flag.Int64("seed", 1, "experiment seed")
		tsv      = flag.Bool("tsv", false, "also print raw TSV series (CDF points, scatter)")
		runs     = flag.Int("runs", 10, "random runs per point for Fig 4-5 (paper: 40)")
		plotW    = flag.Int("plotw", 64, "ASCII plot width")
		parallel = flag.Int("parallel", experiments.AutoParallel(), "worker goroutines for the figure drivers (results are identical for any value)")
		jsonOut  = flag.Bool("json", false, "emit results as JSON instead of text tables")
		gfKernel = flag.String("gf256", "", "pin the GF(256) kernel (auto, portable, reference, or a SIMD arm; see gf256.AvailableKernels)")
		baseline = flag.String("baseline", "", "write per-kernel GF(256) throughput grid to this JSON file (BENCH_gf256.json)")
		checkBl  = flag.String("check-baseline", "", "compare current GF(256) throughput against this baseline; exit 1 on a >20% drop in portable GB/s or in any SIMD arm's speedup over portable")
		blSecs   = flag.Float64("bench-secs", 0.25, "seconds per benchmark cell for -baseline/-check-baseline")
		telOver  = flag.Bool("telemetry-overhead", false, "measure telemetry overhead (off vs full hub); exit 1 if enabled overhead exceeds the 10% bound")
		telRuns  = flag.Int("telemetry-runs", 5, "repetitions per mode for -telemetry-overhead (minimum wall clock wins)")
	)
	flag.Parse()

	if *gfKernel != "" {
		if err := gf256.SetKernel(*gfKernel); err != nil {
			fmt.Fprintf(os.Stderr, "-gf256: %v\n", err)
			os.Exit(2)
		}
	}

	opts := experiments.DefaultOptions()
	opts.FileBytes = *file
	opts.Seed = *seed
	opts.Parallel = *parallel

	type entry struct {
		Name    string      `json:"name"`
		Key     string      `json:"key"`
		Seconds float64     `json:"seconds"`
		Result  interface{} `json:"result"`
	}
	var report []entry

	all := *fig == "" && *table == "" && *baseline == "" && *checkBl == "" && !*telOver
	ran := false
	// run executes one experiment; fn returns the raw result for -json and
	// a printer for the text tables.
	run := func(name string, want string, fn func() (interface{}, func())) {
		if !(all || *fig == want || *table == want) {
			return
		}
		start := time.Now()
		result, print := fn()
		elapsed := time.Since(start)
		if *jsonOut {
			report = append(report, entry{Name: name, Key: want, Seconds: elapsed.Seconds(), Result: result})
		} else {
			fmt.Printf("=== %s ===\n", name)
			print()
			fmt.Printf("[%.2fs]\n\n", elapsed.Seconds())
		}
		ran = true
	}

	topo := experiments.TestbedTopology()
	var fig42 *experiments.ThroughputResult

	run("Figure 4-2: unicast throughput CDF (MORE vs ExOR vs Srcr)", "4.2", func() (interface{}, func()) {
		fig42 = experiments.Fig42UnicastThroughput(topo, *pairs, opts)
		return fig42, func() {
			fmt.Print(fig42.Table())
			cdfs := fig42.CDFs()
			plot := map[rune]*stats.CDF{
				'S': cdfs[experiments.Srcr],
				'E': cdfs[experiments.ExOR],
				'M': cdfs[experiments.MORE],
			}
			xmax := stats.Summarize(fig42.Throughput[experiments.MORE]).Max
			fmt.Println("CDF (x: pkt/s, S=Srcr E=ExOR M=MORE):")
			fmt.Print(stats.AsciiPlot(plot, xmax, *plotW, 16))
			if *tsv {
				for _, pr := range []experiments.Protocol{experiments.Srcr, experiments.ExOR, experiments.MORE} {
					fmt.Printf("# CDF %v\n%s", pr, cdfs[pr].TSV())
				}
			}
		}
	})

	run("Figure 4-3: per-pair scatter (opportunistic vs Srcr)", "4.3", func() (interface{}, func()) {
		if fig42 == nil {
			fig42 = experiments.Fig42UnicastThroughput(topo, *pairs, opts)
		}
		bm, tm := fig42.ChallengedGain(experiments.MORE)
		be, te := fig42.ChallengedGain(experiments.ExOR)
		result := map[string]float64{
			"MORE-challenged-x": bm, "MORE-good-x": tm,
			"ExOR-challenged-x": be, "ExOR-good-x": te,
		}
		return result, func() {
			fmt.Printf("median gain over Srcr, challenged half vs good half:\n")
			fmt.Printf("  MORE: %.2fx vs %.2fx\n", bm, tm)
			fmt.Printf("  ExOR: %.2fx vs %.2fx\n", be, te)
			if *tsv {
				fmt.Print(fig42.ScatterTSV(experiments.Srcr, experiments.MORE))
				fmt.Print(fig42.ScatterTSV(experiments.Srcr, experiments.ExOR))
			}
		}
	})

	run("Figure 4-4: spatial reuse (>=4-hop flows, concurrent first/last hop)", "4.4", func() (interface{}, func()) {
		res := experiments.Fig44SpatialReuse(*pairs/4+3, opts)
		return res, func() { fmt.Print(res.Table()) }
	})

	run("Figure 4-5: multiple flows", "4.5", func() (interface{}, func()) {
		o := opts
		if o.FileBytes > 256<<10 {
			o.FileBytes = 256 << 10 // congested runs are slow; cap per-flow size
		}
		res := experiments.Fig45MultiFlow(topo, 4, *runs, o)
		return res, func() { fmt.Print(res.Table()) }
	})

	run("Figure 4-6: Srcr autorate vs opportunistic routing at 11 Mb/s", "4.6", func() (interface{}, func()) {
		res := experiments.Fig46Autorate(topo, *pairs/2+4, opts)
		return res, func() { fmt.Print(res.Table()) }
	})

	run("Figure 4-7: batch size sweep", "4.7", func() (interface{}, func()) {
		res := experiments.Fig47BatchSize(topo, []int{8, 16, 32, 64, 128}, *pairs/2+4, opts)
		return res, func() { fmt.Print(res.Table()) }
	})

	run("Table 4.1: computational cost of packet operations (K=32, 1500 B)", "4.1", func() (interface{}, func()) {
		res := experiments.Table41CodingCost(32, 1500, 2000)
		return res, func() { fmt.Print(res.Table()) }
	})

	run("Header overhead (§4.6)", "overhead", func() (interface{}, func()) {
		res := experiments.HeaderOverhead(32, 1500)
		return res, func() {
			fmt.Printf("MORE header: %d bytes with K=32 and %d forwarders (%.1f%% of a %d B packet)\n",
				res.HeaderBytes, 10, 100*res.Fraction, res.PktBytes)
		}
	})

	run("Figure 5-1 / Prop. 6: unbounded ETX-vs-EOTX cost gap", "5.1", func() (interface{}, func()) {
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
				fmt.Printf("k=%-3d %s\n", k, strings.Join(parts, "  "))
			}
		}
	})

	run("Robustness: Fig 4-2 gains across generated topologies", "robustness", func() (interface{}, func()) {
		res := experiments.Fig42AcrossSeeds(4, *pairs/4+4, opts)
		return res, func() { fmt.Print(res.Table()) }
	})

	run("§5.7: ETX vs EOTX forwarder order on the testbed", "5.7", func() (interface{}, func()) {
		res := experiments.Sec57EOTXvsETX(topo, *parallel)
		return res, func() { fmt.Print(res.Table()) }
	})

	benchDur := time.Duration(*blSecs * float64(time.Second))

	if *baseline != "" || *checkBl != "" {
		res := experiments.GF256Bench(gf256.AvailableKernels(), 32, experiments.GF256SizeClasses, benchDur)
		if !*jsonOut {
			fmt.Printf("=== GF(256) kernel throughput (K=32) ===\n%s\n", res.Table())
		}
		if *baseline != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			if err == nil {
				err = os.WriteFile(*baseline, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "-baseline: %v\n", err)
				os.Exit(1)
			}
		}
		if *checkBl != "" {
			data, err := os.ReadFile(*checkBl)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-check-baseline: %v\n", err)
				os.Exit(1)
			}
			var base experiments.GF256BenchResult
			if err := json.Unmarshal(data, &base); err != nil {
				fmt.Fprintf(os.Stderr, "-check-baseline: %v\n", err)
				os.Exit(1)
			}
			// The portable arm gates on absolute GB/s: it is the one arm
			// every host (and every CI runner) executes identically. The
			// SIMD arms gate on their same-run speedup over portable, which
			// holds across hosts where their GB/s does not.
			bad := experiments.CompareGF256Baselines(&base, res, 0.20, []string{"portable"})
			if len(bad) > 0 {
				fmt.Fprintf(os.Stderr, "GF(256) throughput regressions beyond 20%%:\n")
				for _, m := range bad {
					fmt.Fprintf(os.Stderr, "  %s\n", m)
				}
				os.Exit(1)
			}
			fmt.Println("baseline check passed: no portable-kernel or SIMD-speedup regression beyond 20%")
		}
		ran = true
	}

	if *telOver {
		start := time.Now()
		res := experiments.TelemetryBench(*telRuns)
		if *jsonOut {
			report = append(report, entry{Name: "telemetry overhead", Key: "telemetry-overhead",
				Seconds: time.Since(start).Seconds(), Result: res})
		} else {
			fmt.Printf("=== Telemetry overhead ===\n%s\n", res.Table())
		}
		if bad := experiments.CompareTelemetryBaselines(res); len(bad) > 0 {
			for _, m := range bad {
				fmt.Fprintln(os.Stderr, m)
			}
			os.Exit(1)
		}
		ran = true
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment: fig=%q table=%q\n", *fig, *table)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]interface{}{
			"seed":     *seed,
			"pairs":    *pairs,
			"file":     *file,
			"parallel": *parallel,
			"results":  report,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
