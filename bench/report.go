package main

import (
	"fmt"
	"io"
	"sort"
	"syscall"

	"repro/internal/stats"
)

// runWorkload runs one workload once, timed or traced, prints what it
// measured and returns the report.
func runWorkload(w workload, cfg runConfig, out io.Writer) (*report, error) {
	r, err := newRunner(w, cfg.root)
	if err != nil {
		return nil, err
	}
	if cfg.seed == 0 {
		cfg.seed = r.pinnedSeed()
	}
	if cfg.golden == "" {
		cfg.golden = r.goldenDigest()
	}
	var rep *report
	if cfg.trace {
		rep, err = tracedReport(w, r, cfg, out)
	} else {
		rep, err = timedReport(w, r, cfg, out)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-14s %-30s %14.6g %s\n", w.name, n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "%-14s %d of %d operations failed (seed %d)\n", w.name, rep.Failed, rep.Attempted, cfg.seed)
	return rep, nil
}

// timedReport is the untraced run: the end-to-end metrics. Host times are
// in calibrated seconds (see calib.go). Host costs that grow with the work
// a realization happens to hold are divided by its reception outcomes, the
// simulator's unit of work, so that they compare across seeds as closely
// as they repeat on one.
func timedReport(w workload, r runner, cfg runConfig, out io.Writer) (*report, error) {
	cal, err := newCalibration()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	cal.keepUp(0)
	setup, err := timeSetup(r)
	if err != nil {
		return nil, err
	}
	cal.keepUp(sum(setup))
	repeat, err := warmUp(w, r, cfg)
	if err != nil {
		return nil, err
	}
	execs, _, err := executions(r, cfg, cfg.seconds, false, cal)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.Attempted, rep.Failed = verify(r, cfg, execs, repeat)

	wall := column(execs, func(e execution) float64 { return e.wallS })
	var rx, tx, delivered, allocs, mallocs float64
	for _, e := range execs {
		rx += float64(e.counts.receptions())
		tx += float64(e.counts.tx)
		delivered += float64(e.delivered)
		allocs += float64(e.allocBytes)
		mallocs += float64(e.mallocs)
	}
	rep.Metrics = map[string]metric{
		"wall_cal_s":     {cal.calibrated(stats.Median(wall)), "s"},
		"setup_s":        {cal.calibrated(stats.Median(setup)), "s"},
		"peak_heap_mb":   {stats.Median(column(execs, func(e execution) float64 { return float64(e.peakHeap) / 1e6 })), "MB"},
		"alloc_b_per_rx": {allocs / rx, "B/rx"},
		"mallocs_per_rx": {mallocs / rx, "1/rx"},
		"sim_tx_per_pkt": {tx / delivered, "tx/pkt"},
	}

	// Annotations: what the medians stand on, in uncalibrated seconds.
	fmt.Fprintf(out, "%-14s wall over %d executions: median %.6g s, min %.6g s", w.name, len(wall), stats.Median(wall), wall[0])
	if p, v, ok := highPercentile(wall); ok && p > 50 {
		fmt.Fprintf(out, ", p%.0f %.6g s", p, v)
	}
	fmt.Fprintf(out, "\n%-14s set-up over %d samples: median %.6g s, min %.6g s\n", w.name, len(setup), stats.Median(setup), setup[0])
	fmt.Fprintf(out, "%-14s calibration kernel over %d samples: median %.4g s (reference %.4g s)\n",
		w.name, len(cal.samples), cal.seconds(), calibrationRef)
	fmt.Fprintf(out, "%-14s digest of realization %d: %s\n", w.name, execs[0].seed, execs[0].digest)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		fmt.Fprintf(out, "%-14s ru_maxrss %.1f MB (annotation only: it varies more than peak_heap_mb)\n", w.name, float64(ru.Maxrss)/1e3)
	}
	return rep, nil
}

// tracedReport is the traced run: the per-layer metrics. Half of the
// measuring time goes to untraced executions and half to the same
// realizations under the CPU profiler with a telemetry Hub installed; the
// gap between the two is what tracing costs. Counts and simulated-clock
// figures come from the run's first realization, the seed itself, so they
// repeat exactly for a given seed. Host times here are uncalibrated;
// rt.calibration_ms says how fast the machine was.
func tracedReport(w workload, r runner, cfg runConfig, out io.Writer) (*report, error) {
	repeat, err := warmUp(w, r, cfg)
	if err != nil {
		return nil, err
	}
	cal, err := newCalibration()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	plain, _, err := executions(r, cfg, cfg.seconds/2, false, cal)
	if err != nil {
		return nil, err
	}
	var (
		traced     []execution
		collectors []*telemetryCollector
	)
	samples, err := cpuProfile(func() (err error) {
		traced, collectors, err = executions(r, cfg, cfg.seconds/2, true, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	shares, ticks := layerShares(samples)
	if ticks == 0 {
		return nil, fmt.Errorf("%s: the CPU profile holds no samples", w.name)
	}

	rep := &report{Metrics: map[string]metric{}}
	rep.Attempted, rep.Failed = verify(r, cfg, plain, repeat)
	for _, e := range traced {
		// A traced scenario result embeds its telemetry report, so its
		// digest is not the untraced one; its flows must still verify.
		rep.Attempted += e.flows
		rep.Failed += e.failedFlows
	}

	m := rep.Metrics
	for layer, pct := range shares {
		m["cpu."+layer] = metric{pct, "%"}
	}
	first, telem := plain[0], collectors[0].summary()
	c := first.counts
	count := func(name string, v int64) { m[name] = metric{float64(v), "count"} }
	count("sim.medium.tx", c.tx)
	count("sim.medium.rx_ok", c.rxOK)
	count("sim.medium.collisions", c.collisions)
	count("sim.medium.chan_losses", c.chanLosses)
	m["sim.medium.rx_ok_frac"] = metric{float64(c.rxOK) / float64(c.receptions()), "ratio"}
	count("sim.mac.acks", c.macAcks)
	count("sim.mac.unicast_fail", c.unicastFail)
	count("linkstate.flood_tx", c.floodTx)
	count("probe.tx", c.probeTx)
	count("congest.enqueued", c.enqueued)
	count("congest.drops", c.drops)
	count("congest.grant_tx", c.grantTx)
	count("congest.gate_skips", c.gateSkips)
	count("telemetry.events", telem.events)
	m["flow.delivery_p50_ms"] = metric{telem.deliveryP50Ms, "ms"}
	m["flow.delivery_p99_ms"] = metric{telem.deliveryP99Ms, "ms"}
	m["congest.queue_wait_p99_ms"] = metric{telem.queueWaitP99, "ms"}
	m["flow.goodput_pps"] = metric{float64(first.delivered) / first.flowS, "pkt/s"}
	m["experiments.gain_vs_exor_pct"] = metric{first.gainVsExor, "%"}
	m["experiments.gain_vs_srcr_pct"] = metric{first.gainVsSrcr, "%"}
	m["executor.sim_speed"] = metric{stats.Median(column(plain, func(e execution) float64 { return e.simS / e.wallS })), "sim_s/s"}
	m["rt.alloc_mb"] = metric{float64(first.allocBytes) / 1e6, "MB"}
	m["rt.mallocs_m"] = metric{float64(first.mallocs) / 1e6, "M"}

	plainWall := column(plain, func(e execution) float64 { return e.wallS })
	var rx float64
	for _, e := range plain {
		rx += float64(e.counts.receptions())
	}
	m["executor.wall_s"] = metric{stats.Median(plainWall), "s"}
	m["rt.calibration_ms"] = metric{1e3 * cal.seconds(), "ms"}
	m["sim.host_ns_per_rx"] = metric{1e9 * sum(plainWall) / rx, "ns"}
	m["rt.gc_cycles"] = metric{stats.Median(column(plain, func(e execution) float64 { return float64(e.gcCycles) })), "count"}
	m["rt.gc_pause_ms"] = metric{stats.Median(column(plain, func(e execution) float64 { return float64(e.gcPauseNs) / 1e6 })), "ms"}
	// Tracing overhead compares the same realizations with and without.
	n := min(len(plain), len(traced))
	with := stats.Median(column(traced[:n], func(e execution) float64 { return e.wallS }))
	without := stats.Median(column(plain[:n], func(e execution) float64 { return e.wallS }))
	m["trace_overhead_pct"] = metric{100 * (with/without - 1), "%"}

	fmt.Fprintf(out, "%-14s traced %d executions (%d CPU samples), untraced %d\n", w.name, len(traced), ticks, len(plain))
	if w.spec == "" {
		fmt.Fprintf(out, "%-14s MORE's median-throughput gain: %.1f%% over ExOR (paper: 22%%), %.1f%% over Srcr (paper: 95%%)\n",
			w.name, first.gainVsExor, first.gainVsSrcr)
	}
	return rep, nil
}
