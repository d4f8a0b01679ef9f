// Command moresim runs file transfers over a chosen topology and protocol
// and reports the results — the quick way to poke at the system.
//
//	moresim -proto more -topo testbed -src 3 -dst 17 -file 786432
//	moresim -proto exor -topo chain -nodes 6
//	moresim -proto srcr -topo diamond -verbose
//	moresim -proto all -parallel 4               # compare all four protocols
//
// Declarative scenarios replace flag combinations with one versionable
// file (topology + flows + knobs + event schedule; see scenarios/):
//
//	moresim -scenario scenarios/push-choke.json
//	moresim -scenario scenarios/paper-testbed.json -json   # byte-identical across runs
//
// Large-topology scenarios run over the sparse random-geometric generator:
//
//	moresim -topo geometric -nodes 1000 -flows 4 -drop 0.1
//	moresim -topo geometric -scale 125,250,500,1000 -flows 2 -json
//
// The telemetry plane rides on any single run (flag combination or
// scenario): -metrics writes latency percentiles and per-node counters,
// -trace-out a Chrome-trace-event file, -deadline-ms arms the per-packet
// miss rate, -progress a stderr heartbeat. Stall post-mortems print to
// stderr the moment a repair watchdog fires:
//
//	moresim -proto more -metrics metrics.json -trace-out trace.json
//	moresim -scenario scenarios/paper-testbed.json -metrics - -deadline-ms 500
//	moresim -topo geometric -nodes 500 -progress 5
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run itself
// (not of flag handling or report printing), for `go tool pprof`:
//
//	moresim -scenario scenarios/learned-512.json -cpuprofile cpu.out
//
// With -scale the node counts are swept (fanned over -parallel workers) and
// a throughput/tx-per-packet/wall-clock table — or JSON with -json — is
// printed. With -proto all the four protocols run over the same pair on
// -parallel worker goroutines (each in its own simulator; per-protocol
// results are identical to serial runs) and a comparison table is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/gf256"
	"repro/internal/graph"
	"repro/internal/linkstate"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	var (
		protoName = flag.String("proto", "more", "protocol: more, exor, srcr, srcr-auto, or all (comparison)")
		parallel  = flag.Int("parallel", experiments.AutoParallel(), "worker goroutines for -proto all and -scale")
		topoName  = flag.String("topo", "testbed", "topology: testbed, chain, diamond, corridor, grid, geometric")
		nodes     = flag.Int("nodes", 6, "node count for chain/corridor/geometric topologies")
		flows     = flag.Int("flows", 1, "concurrent flows (geometric and matrix topologies)")
		drop      = flag.Float64("drop", 0, "uniform extra drop rate layered over every link (0..1)")
		degree    = flag.Int("degree", 10, "target mean neighbor degree for geometric topologies")
		floors    = flag.Int("floors", 1, "building floors for geometric topologies")
		scaleList = flag.String("scale", "", "comma-separated node counts: sweep the geometric scaling driver")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON (scale sweeps and flow runs)")
		src       = flag.Int("src", -1, "source node (default: topology-specific)")
		dst       = flag.Int("dst", -1, "destination node (default: topology-specific)")
		fileBytes = flag.Int("file", 512<<10, "transfer size in bytes")
		batch     = flag.Int("k", 32, "batch size K for MORE/ExOR")
		seed      = flag.Int64("seed", 1, "simulation seed")
		metric    = flag.String("metric", "etx", "forwarder ordering: etx or eotx")
		stateName = flag.String("state", "oracle", "routing state: oracle (global ground truth) or learned (in-sim probes + LSA floods; also runs the oracle side and reports the gap)")
		warmup    = flag.Float64("warmup", 30, "learned-state measurement warmup before flows start (seconds; 0 starts flows cold)")
		window    = flag.Int("window", 10, "learned-state probe window (probes per estimate, > 0)")
		advertise = flag.Float64("advertise", 5, "learned-state LSA advertise interval (seconds, > 0)")
		damp      = flag.Float64("damp", 0, "learned-state LSA flood damping trigger: advertise only when an estimate moved this much (0 disables; try 0.2)")
		scopeList = flag.String("scope-rings", "", "learned-state fisheye scope rings: comma-separated ascending hop radii (e.g. 2,8); near rings get every update, the rest wait for summaries (empty disables scoping)")
		summaryS  = flag.Float64("summary-interval", 0, "learned-state network-wide summary flood period with -scope-rings, seconds (0: 8x advertise interval)")
		piggyback = flag.Bool("piggyback", false, "learned-state: ride pending LSAs on outgoing broadcast data frames instead of dedicated floods")
		ccName    = flag.String("cc", "none", "congestion control: none, tail, choke, credit, aimd, or cubic")
		ccQueue   = flag.Int("cc-queue", 0, "congestion-layer transmit queue bound (0: policy default)")
		loadPen   = flag.Float64("load-penalty", 0, "load-aware routing: ETX penalty of a fully saturated forwarder (0 disables; try 2)")
		ccSweep   = flag.Bool("cc-sweep", false, "with -scale: run every congestion policy over the same topologies and print the mitigation table")
		verbose   = flag.Bool("verbose", false, "print the forwarding plan")
		showTrace = flag.Bool("trace", false, "print a per-node medium activity timeline")
		scenFile  = flag.String("scenario", "", "run a declarative scenario spec file (scenarios/*.json); only -json and the telemetry flags combine with it")
		gfKernel  = flag.String("gf256", "", "pin the GF(256) kernel (auto, portable, reference, or a SIMD arm); coded bytes are identical under every kernel")

		metricsOut = flag.String("metrics", "", "write the telemetry metrics report (per-packet latency percentiles, per-node counters, stall count) as JSON to this file (\"-\" for stdout)")
		traceOut   = flag.String("trace-out", "", "write a Chrome-trace-event JSON file of every telemetry event (load in Perfetto or chrome://tracing)")
		deadlineMS = flag.Float64("deadline-ms", 0, "per-packet delivery deadline for the telemetry miss rate, in milliseconds (0 disables)")
		simLimit   = flag.Float64("sim-deadline", 0, "simulated transfer deadline in seconds, measured from flow start (0: the 3600 s default); bounds slow learned-state runs at scale")
		progress   = flag.Float64("progress", 0, "print a progress heartbeat (events seen, simulated clock) to stderr every N wall-clock seconds (0 disables)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile, taken when the run ends, to this file (go tool pprof)")
	)
	flag.Parse()
	prof := profileCLI{cpu: *cpuProfile, mem: *memProfile}

	tc := telemetryCLI{metrics: *metricsOut, trace: *traceOut, deadlineMS: *deadlineMS, progressS: *progress}

	if *gfKernel != "" {
		if err := gf256.SetKernel(*gfKernel); err != nil {
			fmt.Fprintf(os.Stderr, "-gf256: %v\n", err)
			os.Exit(2)
		}
	}

	if *scenFile != "" {
		if !runScenario(*scenFile, *jsonOut, tc, prof) {
			os.Exit(1)
		}
		return
	}

	opts := experiments.DefaultOptions()
	opts.FileBytes = *fileBytes
	opts.BatchSize = *batch
	opts.Seed = *seed
	opts.Parallel = *parallel
	if *simLimit < 0 {
		fmt.Fprintln(os.Stderr, "-sim-deadline must be >= 0")
		os.Exit(2)
	}
	if *simLimit > 0 {
		opts.Deadline = sim.Time(*simLimit * float64(sim.Second))
	}
	if *metric == "eotx" {
		opts.Metric = routing.OrderEOTX
	}
	state, err := experiments.ParseStateMode(*stateName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ccPolicy, err := congest.ParsePolicy(*ccName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.CC = congest.DefaultConfig(ccPolicy)
	opts.CC.QueueLen = *ccQueue
	if *loadPen < 0 {
		fmt.Fprintln(os.Stderr, "-load-penalty must be >= 0")
		os.Exit(2)
	}
	opts.LoadPenalty = *loadPen
	if state == experiments.StateLearned {
		// A zero window or advertise interval would be read as "default"
		// downstream (and a negative one is meaningless); tell the user
		// instead of running something they did not ask for.
		if *window <= 0 || *advertise <= 0 {
			fmt.Fprintln(os.Stderr, "-window and -advertise must be > 0")
			os.Exit(2)
		}
		if *warmup > 0 {
			opts.Warmup = sim.Time(*warmup * float64(sim.Second))
		} else {
			opts.Warmup = -1 // explicit cold start (0 would mean "default 30 s")
		}
		lcfg := linkstate.DefaultConfig()
		lcfg.Probe.Window = *window
		lcfg.AdvertiseInterval = sim.Time(*advertise * float64(sim.Second))
		lcfg.TriggerDelta = *damp
		if *scopeList != "" {
			rings, ok := parseRings(*scopeList)
			if !ok {
				os.Exit(2)
			}
			lcfg.ScopeRings = rings
		}
		if *summaryS < 0 {
			fmt.Fprintln(os.Stderr, "-summary-interval must be >= 0")
			os.Exit(2)
		}
		lcfg.SummaryInterval = sim.Time(*summaryS * float64(sim.Second))
		lcfg.Piggyback = *piggyback
		opts.LinkState = lcfg
	}

	gcfg := graph.DefaultGeometric(*nodes)
	gcfg.TargetDegree = float64(*degree)
	gcfg.Floors = *floors

	var proto experiments.Protocol
	switch *protoName {
	case "all":
		// Handled after the verbose plan dump below.
	case "more":
		proto = experiments.MORE
	case "exor":
		proto = experiments.ExOR
	case "srcr":
		proto = experiments.Srcr
	case "srcr-auto":
		proto = experiments.SrcrAutorate
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *protoName)
		os.Exit(2)
	}
	if proto == experiments.SrcrAutorate {
		opts.RateDependentChannel = true
	}

	if *scaleList != "" {
		if *protoName == "all" {
			fmt.Fprintln(os.Stderr, "-scale needs a single protocol (default: more)")
			os.Exit(2)
		}
		if tc.active() {
			fmt.Fprintln(os.Stderr, "-metrics/-trace-out/-deadline-ms/-progress need a single simulation run, not a -scale sweep")
			os.Exit(2)
		}
		if state == experiments.StateLearned {
			// Each point runs the whole measurement plane in-sim: probes,
			// scoped LSA floods, per-node learned routing.
			opts.State = experiments.StateLearned
			if *ccSweep {
				fmt.Fprintln(os.Stderr, "-cc-sweep runs the oracle control plane; drop -state learned")
				os.Exit(2)
			}
		}
		counts, ok := parseCounts(*scaleList)
		if !ok {
			os.Exit(2)
		}
		sweep := experiments.ScalingConfig{
			NodeCounts: counts,
			Flows:      *flows,
			Drop:       *drop,
			Geometric:  gcfg,
			Protocol:   proto,
			Opts:       opts,
		}
		run := runScale
		if *ccSweep {
			run = runCCSweep
		}
		if !prof.around(func() bool { return run(sweep, *jsonOut) }) {
			os.Exit(1)
		}
		return
	}

	var topo *graph.Topology
	defSrc, defDst := 0, 0
	switch *topoName {
	case "testbed":
		topo = experiments.TestbedTopology()
		defSrc, defDst = 3, 17
	case "chain":
		topo = graph.LossyChain(*nodes, 15, 30)
		defSrc, defDst = 0, *nodes-1
	case "diamond":
		topo = graph.Diamond()
		defSrc, defDst = 0, 2
	case "corridor":
		topo = graph.Corridor(*nodes, float64(*nodes)*26, 15, 28, *seed)
		defSrc, defDst = 0, *nodes-1
	case "grid":
		topo = graph.Grid(4, 5, 14, 30)
		defSrc, defDst = 0, topo.N()-1
	case "geometric":
		topo, _ = graph.ConnectedGeometric(gcfg, *seed)
		defSrc, defDst = -1, -1 // chosen after Degrade, below
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topoName)
		os.Exit(2)
	}
	if *drop > 0 {
		topo.Degrade(*drop)
	}
	if *src < 0 && defSrc >= 0 {
		*src = defSrc
	}
	if *dst < 0 && defDst >= 0 {
		*dst = defDst
	}
	if *src < 0 || *dst < 0 {
		// Geometric default endpoints: the first reachable random pair,
		// drawn on the (possibly degraded) topology actually being run.
		pairs := experiments.RandomPairs(topo, 1, *seed)
		if len(pairs) == 0 {
			fmt.Fprintln(os.Stderr, "no reachable flow pairs on this topology (too much -drop, or disconnected draw)")
			os.Exit(1)
		}
		if *src < 0 {
			*src = int(pairs[0].Src)
		}
		if *dst < 0 {
			*dst = int(pairs[0].Dst)
		}
	}

	pair := experiments.Pair{Src: graph.NodeID(*src), Dst: graph.NodeID(*dst)}
	if *verbose {
		s := topo.LinkStats(graph.RouteThreshold)
		fmt.Printf("topology: %d nodes, %d usable links, mean loss %.2f, mean degree %.1f\n",
			topo.N(), s.Links, s.MeanLoss, s.MeanDegree)
		if plan, err := routing.BuildPlan(topo, pair.Src, pair.Dst, planOpts(opts)); err == nil {
			fmt.Printf("plan %d->%d (%s order): cost %.2f\n", pair.Src, pair.Dst, opts.Metric, plan.TotalCost)
			for _, id := range plan.Participants() {
				fmt.Printf("  node %-3d dist=%-7.2f z=%-6.2f credit=%.2f\n",
					id, plan.Dist[id], plan.Z[id], plan.Credit[id])
			}
		}
		etx := routing.ETXToDestination(topo, pair.Dst, routing.DefaultETXOptions())
		fmt.Printf("best ETX path: %v (ETX %.2f)\n\n", etx.Path(pair.Src), etx.Dist[pair.Src])
	}

	if *protoName == "all" {
		if *showTrace || tc.active() {
			fmt.Fprintln(os.Stderr, "-trace and the telemetry flags are not supported with -proto all (one simulator per run; pick a protocol)")
			os.Exit(2)
		}
		if state == experiments.StateLearned {
			fmt.Fprintln(os.Stderr, "-proto all runs the oracle control plane; use -state learned with a single protocol")
			os.Exit(2)
		}
		if *flows > 1 {
			fmt.Fprintln(os.Stderr, "-proto all compares a single pair; use -flows with one protocol")
			os.Exit(2)
		}
		if !prof.around(func() bool { return compareAll(topo, pair.Src, pair.Dst, opts) }) {
			os.Exit(1)
		}
		return
	}

	pairs := []experiments.Pair{pair}
	if *flows > 1 {
		if flagWasSet("src") || flagWasSet("dst") {
			fmt.Fprintln(os.Stderr, "-flows > 1 draws random pairs; it cannot be combined with -src/-dst")
			os.Exit(2)
		}
		pairs = experiments.RandomPairs(topo, *flows, *seed)
		if len(pairs) == 0 {
			fmt.Fprintln(os.Stderr, "no reachable flow pairs on this topology")
			os.Exit(1)
		}
	}

	if state == experiments.StateLearned {
		if *showTrace || tc.active() {
			fmt.Fprintln(os.Stderr, "-trace and the telemetry flags are not supported with -state learned (the gap report runs two simulations)")
			os.Exit(2)
		}
		if !prof.around(func() bool { return runLearned(topo, proto, pairs, opts, *jsonOut) }) {
			os.Exit(1)
		}
		return
	}

	var hub *telemetry.Hub
	if tc.active() {
		hub = tc.newHub()
		opts.Telemetry = hub
	}
	var txs *txLog
	if *showTrace {
		// The log is an ordinary telemetry sink: alone it is the whole
		// plane, next to a hub it rides along as an extra consumer.
		txs = new(txLog)
		if hub != nil {
			hub.AddSink(txs)
		} else {
			opts.Telemetry = txs
		}
	}
	stopProgress := tc.startProgress(hub)
	var info experiments.RunInfo
	prof.around(func() bool { info = experiments.RunDetailed(topo, proto, pairs, opts); return true })
	stopProgress()
	rs, counters := info.Results, info.Counters
	if txs != nil {
		fmt.Print(txs.timeline(0, timelineEnd(rs), 96))
	}
	if hub != nil && !tc.finish(hub) {
		os.Exit(1)
	}
	if *jsonOut {
		printJSON(struct {
			Protocol  string
			Nodes     int
			CC        congest.Policy
			Results   []flow.Result
			Counters  sim.Counters
			CCStats   congest.Stats
			Fairness  experiments.FairnessReport
			Telemetry *telemetry.Report `json:",omitempty"`
		}{proto.String(), topo.N(), info.CC, rs, counters, info.CCStats, info.Fairness, info.Telemetry})
	} else {
		fmt.Printf("protocol: %v, cc: %v\n", proto, info.CC)
		for _, r := range rs {
			fmt.Printf("%s\n", r)
		}
		fmt.Printf("medium: %d data tx, %d MAC acks, %d collisions, %d channel losses, air time %v\n",
			counters.Transmissions, counters.MACAcks, counters.Collisions,
			counters.ChannelLosses, counters.AirTime)
		if len(rs) > 1 {
			fmt.Printf("fairness: Jain(throughput) %.3f, Jain(tx) %.3f, control tx %d\n",
				info.Fairness.JainThroughput, info.Fairness.JainTx, info.Fairness.ControlTx)
		}
		if info.CC != congest.None {
			st := info.CCStats
			fmt.Printf("congestion: %d enqueued, %d tail + %d choke + %d stale drops, %d grants, %d probes, %d rate cuts\n",
				st.Enqueued, st.TailDrops, st.ChokeDrops, st.StaleDrops, st.GrantTx, st.ProbeSends, st.RateDecreases)
		}
	}
	for _, r := range rs {
		if !r.Completed {
			os.Exit(1)
		}
	}
}

// runScenario loads, runs, and reports a declarative scenario. With
// jsonOut it emits the canonical result document (byte-identical across
// runs of the same spec — pipe it to cmd/scenariocheck to verify; the
// telemetry flags add an optional Telemetry block, everything else stays
// identical). It reports whether every flow met its schedule.
func runScenario(path string, jsonOut bool, tc telemetryCLI, prof profileCLI) bool {
	spec, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var hub *telemetry.Hub
	if tc.active() {
		hub = tc.newHub()
	}
	stopProgress := tc.startProgress(hub)
	var res *scenario.Result
	prof.around(func() bool { res, err = scenario.RunWith(spec, hub); return true })
	stopProgress()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if hub != nil && !tc.finish(hub) {
		os.Exit(1)
	}
	if jsonOut {
		out, err := res.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return res.Done()
	}
	fmt.Printf("scenario: %s (%d nodes, seed %d, state %v, cc %v)\n",
		res.Scenario, res.Nodes, res.Seed, res.State, res.CC)
	if spec.Description != "" {
		fmt.Printf("  %s\n", spec.Description)
	}
	fmt.Printf("%-12s %-6s %-6s %6s %12s %10s %10s %6s\n",
		"flow", "proto", "model", "s->d", "delivered", "pkt/s", "tx", "done")
	for _, f := range res.Flows {
		fmt.Printf("%-12s %-6s %-6v %3d->%-3d %6d/%-6d %10.1f %10d %6v\n",
			f.Name, f.Protocol, f.Traffic, f.Result.Src, f.Result.Dst,
			f.Result.PacketsDelivered, f.Result.PacketsTotal,
			f.Result.Throughput(), f.Result.Transmissions, f.Done)
	}
	fmt.Printf("medium: %d data tx, %d collisions, %d channel losses, air time %v, run %v\n",
		res.Counters.Transmissions, res.Counters.Collisions,
		res.Counters.ChannelLosses, res.Counters.AirTime, res.End-res.Epoch)
	if len(res.Flows) > 1 {
		fmt.Printf("fairness: Jain(throughput) %.3f, Jain(tx) %.3f, control tx %d\n",
			res.Fairness.JainThroughput, res.Fairness.JainTx, res.Fairness.ControlTx)
	}
	if res.CC != congest.None {
		st := res.CCStats
		fmt.Printf("congestion: %d pushed, %d enqueued, %d tail + %d choke + %d stale drops, %d grants, %d probes\n",
			st.Pushed, st.Enqueued, st.TailDrops, st.ChokeDrops, st.StaleDrops, st.GrantTx, st.ProbeSends)
	}
	if res.State == experiments.StateLearned {
		fmt.Printf("measurement plane: converged at %v, %d probe tx, %d LSA tx\n",
			res.Convergence, res.ProbeTx, res.FloodTx)
	}
	fmt.Printf("digest: %s\n", res.Digest)
	return res.Done()
}

// runLearned runs the flows with routing state learned over the air (and
// once more from the oracle for comparison) and prints the gap report. It
// reports whether every learned-state flow completed.
func runLearned(topo *graph.Topology, proto experiments.Protocol, pairs []experiments.Pair,
	opts experiments.Options, jsonOut bool) bool {
	rep := experiments.GapRun(topo, proto, pairs, opts)
	if jsonOut {
		printJSON(struct {
			Nodes int
			Gap   experiments.GapReport
		}{topo.N(), rep})
	} else {
		fmt.Printf("protocol: %v, state: learned (vs oracle), %d flow(s)\n", proto, rep.Flows)
		fmt.Printf("%-10s %10s %12s %14s %8s\n", "state", "pkt/s", "tx/pkt", "data-tx/pkt", "done")
		fmt.Printf("%-10s %10.1f %12.2f %14.2f %5d/%-2d\n", "oracle",
			rep.Oracle.Throughput, rep.Oracle.TxPerPacket, rep.Oracle.DataTxPerPacket, rep.Oracle.Completed, rep.Flows)
		fmt.Printf("%-10s %10.1f %12.2f %14.2f %5d/%-2d\n", "learned",
			rep.Learned.Throughput, rep.Learned.TxPerPacket, rep.Learned.DataTxPerPacket, rep.Learned.Completed, rep.Flows)
		fmt.Printf("gap: throughput x%.2f, tx/pkt x%.2f (data-only x%.2f)\n",
			rep.ThroughputRatio, rep.TxPerPacketRatio, rep.DataTxPerPacketRatio)
		fmt.Printf("measurement plane: converged at %v, %d probe tx, %d LSA tx\n",
			rep.Convergence, rep.ProbeTx, rep.FloodTx)
	}
	return rep.Learned.Completed == rep.Flows
}

// runScale sweeps the scaling driver and prints the table (or JSON). It
// reports whether every flow at every point completed.
func runScale(cfg experiments.ScalingConfig, jsonOut bool) bool {
	points := experiments.ScalingSweep(cfg)
	ok := true
	if jsonOut {
		printJSON(points)
		for _, pt := range points {
			ok = ok && pt.Completed == pt.Flows
		}
		return ok
	}
	learned := cfg.Opts.State == experiments.StateLearned
	fmt.Printf("scaling sweep: proto=%v flows=%d drop=%.2f file=%dB degree=%.0f state=%v\n",
		cfg.Protocol, cfg.Flows, cfg.Drop, cfg.Opts.FileBytes, cfg.Geometric.TargetDegree, cfg.Opts.State)
	fmt.Printf("%8s %8s %10s %10s %10s %8s %12s", "nodes", "links", "deg", "pkt/s", "tx/pkt", "done", "wall")
	if learned {
		fmt.Printf(" %10s %10s %10s", "probe-tx", "flood-tx", "flood/node")
	}
	fmt.Println()
	for _, pt := range points {
		tpp := "-"
		if pt.TxPerPacket != 0 {
			tpp = fmt.Sprintf("%.2f", pt.TxPerPacket)
		}
		fmt.Printf("%8d %8d %10.1f %10.1f %10s %5d/%-2d %12v",
			pt.Nodes, pt.UsableLinks, pt.MeanDegree, pt.Throughput, tpp,
			pt.Completed, pt.Flows, pt.WallClock.Round(time.Millisecond))
		if learned {
			fmt.Printf(" %10d %10d %10.1f", pt.ProbeTx, pt.FloodTx, float64(pt.FloodTx)/float64(pt.Nodes))
		}
		fmt.Println()
		ok = ok && pt.Completed == pt.Flows
	}
	return ok
}

// runCCSweep re-runs the scaling sweep once per congestion policy over
// identical topologies and flows and prints the mitigation table (or
// JSON). It reports whether every flow at every point completed.
func runCCSweep(cfg experiments.ScalingConfig, jsonOut bool) bool {
	grid := experiments.CCSweep(cfg)
	allDone := true
	for _, pt := range grid {
		allDone = allDone && pt.Completed == pt.Flows
	}
	if jsonOut {
		printJSON(grid)
		return allDone
	}
	fmt.Printf("congestion mitigation sweep: proto=%v flows=%d drop=%.2f file=%dB\n",
		cfg.Protocol, cfg.Flows, cfg.Drop, cfg.Opts.FileBytes)
	fmt.Printf("%-8s %8s %10s %10s %8s %8s %8s %10s\n",
		"cc", "nodes", "pkt/s", "tx/pkt", "jainT", "done", "grants", "drops")
	for _, pt := range grid {
		tpp := "-"
		if pt.TxPerPacket != 0 {
			tpp = fmt.Sprintf("%.2f", pt.TxPerPacket)
		}
		drops := pt.CCStats.TailDrops + pt.CCStats.ChokeDrops + pt.CCStats.StaleDrops
		fmt.Printf("%-8v %8d %10.1f %10s %8.3f %5d/%-2d %8d %8d\n",
			pt.CC, pt.Nodes, pt.Throughput, tpp, pt.Fairness.JainThroughput,
			pt.Completed, pt.Flows, pt.CCStats.GrantTx, drops)
	}
	return allDone
}

// parseRings parses the -scope-rings hop-radius list: ascending positive
// integers.
func parseRings(list string) ([]int, bool) {
	var rings []int
	for _, part := range strings.Split(list, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || r < 1 || r > 255 || (len(rings) > 0 && r <= rings[len(rings)-1]) {
			fmt.Fprintf(os.Stderr, "bad -scope-rings entry %q (want ascending radii 1..255)\n", part)
			return nil, false
		}
		rings = append(rings, r)
	}
	return rings, true
}

// printJSON writes v to stdout as indented JSON. A value encoding/json
// cannot encode (a NaN metric) fails the run loudly instead of printing an
// empty document.
func printJSON(v interface{}) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "moresim: -json: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// parseCounts parses the -scale node-count list.
func parseCounts(list string) ([]int, bool) {
	var counts []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			fmt.Fprintf(os.Stderr, "bad -scale entry %q\n", part)
			return nil, false
		}
		counts = append(counts, n)
	}
	return counts, true
}

// compareAll runs every protocol over the same pair, fanning the hermetic
// per-protocol simulations out over opts.Parallel workers, and prints a
// comparison table. It reports whether every protocol completed the
// transfer.
func compareAll(topo *graph.Topology, src, dst graph.NodeID, opts experiments.Options) bool {
	protos := []experiments.Protocol{
		experiments.MORE, experiments.ExOR, experiments.Srcr, experiments.SrcrAutorate,
	}
	pair := experiments.Pair{Src: src, Dst: dst}
	results := make([]flow.Result, len(protos))
	counters := make([]sim.Counters, len(protos))
	experiments.ForEachItem(len(protos), opts.Parallel, func(i int) {
		o := opts
		if protos[i] == experiments.SrcrAutorate {
			o.RateDependentChannel = true
		}
		rs, cs := experiments.RunWithCounters(topo, protos[i], []experiments.Pair{pair}, o)
		results[i] = rs[0]
		counters[i] = cs
	})
	fmt.Printf("pair %d -> %d, %d B file:\n", src, dst, opts.FileBytes)
	fmt.Printf("%-14s %10s %10s %8s %12s\n", "proto", "pkt/s", "tx", "done", "air time")
	allDone := true
	for i, p := range protos {
		fmt.Printf("%-14v %10.1f %10d %8v %12v\n",
			p, results[i].Throughput(), counters[i].Transmissions,
			results[i].Completed, counters[i].AirTime)
		allDone = allDone && results[i].Completed
	}
	return allDone
}

// profileCLI carries -cpuprofile and -memprofile: where to write the
// runtime/pprof profiles of the run, empty for none.
type profileCLI struct{ cpu, mem string }

// around calls run and returns its result. CPU samples cover exactly run;
// the heap profile is taken once run returns, after a collection, so it
// shows what the run left live and everything it allocated. A file that
// cannot be created or written is reported on stderr and exits 1.
func (p profileCLI) around(run func() bool) bool {
	check := func(flagName string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", flagName, err)
			os.Exit(1)
		}
	}
	var cpu *os.File
	if p.cpu != "" {
		var err error
		cpu, err = os.Create(p.cpu)
		check("-cpuprofile", err)
		check("-cpuprofile", pprof.StartCPUProfile(cpu))
	}
	ok := run()
	if cpu != nil {
		pprof.StopCPUProfile()
		check("-cpuprofile", cpu.Close())
	}
	if p.mem != "" {
		f, err := os.Create(p.mem)
		check("-memprofile", err)
		runtime.GC() // bring the live-heap figures up to date
		check("-memprofile", pprof.WriteHeapProfile(f))
		check("-memprofile", f.Close())
	}
	return ok
}

// telemetryCLI groups the observability flag surface: where to write the
// metrics report and Chrome trace, the per-packet deadline, and the
// heartbeat period.
type telemetryCLI struct {
	metrics    string
	trace      string
	deadlineMS float64
	progressS  float64
}

// active reports whether any telemetry flag asks for a hub.
func (tc telemetryCLI) active() bool {
	return tc.metrics != "" || tc.trace != "" || tc.deadlineMS > 0 || tc.progressS > 0
}

// newHub builds the hub the flags describe. Stall dumps go to stderr as
// indented JSON the moment the watchdog fires — the post-mortem survives
// even if the process is killed before the run finishes.
func (tc telemetryCLI) newHub() *telemetry.Hub {
	return telemetry.NewHub(telemetry.Config{
		DeadlineNS:  int64(tc.deadlineMS * 1e6),
		ChromeTrace: tc.trace != "",
		OnStall: func(d telemetry.StallDump) {
			out, err := json.MarshalIndent(d, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "moresim: stall dump: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "moresim: %s at node %d (flow %d, batch %d, t=%v):\n%s\n",
				d.Reason, d.Node, d.Flow, d.Batch, sim.Time(d.At), out)
		},
	})
}

// startProgress launches the stderr heartbeat goroutine and returns its
// stop function. The hub's atomic counters are the only shared state, so
// reading them mid-run is safe; the simulated clock of the last event is
// the best liveness signal a single-threaded simulation can offer.
func (tc telemetryCLI) startProgress(hub *telemetry.Hub) func() {
	if tc.progressS <= 0 || hub == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Duration(tc.progressS * float64(time.Second)))
		defer tick.Stop()
		start := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "moresim: %v elapsed, %d events, sim clock %v\n",
					time.Since(start).Round(time.Second), hub.Events(), sim.Time(hub.LastAt()))
			}
		}
	}()
	return func() { close(stop); <-done }
}

// finish writes the artifacts the flags requested from a completed run.
func (tc telemetryCLI) finish(hub *telemetry.Hub) bool {
	ok := true
	if tc.metrics != "" {
		out, err := json.MarshalIndent(hub.Report(), "", "  ")
		if err == nil {
			out = append(out, '\n')
			if tc.metrics == "-" {
				_, err = os.Stdout.Write(out)
			} else {
				err = os.WriteFile(tc.metrics, out, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "-metrics: %v\n", err)
			ok = false
		}
	}
	if tc.trace != "" {
		f, err := os.Create(tc.trace)
		if err == nil {
			err = hub.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "-trace-out: %v\n", err)
			ok = false
		}
		if n := hub.Truncated(); n > 0 {
			fmt.Fprintf(os.Stderr, "moresim: chrome trace capped, %d events dropped\n", n)
		}
	}
	return ok
}

// flagWasSet reports whether the named flag was given on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func planOpts(o experiments.Options) routing.PlanOptions {
	p := routing.DefaultPlanOptions()
	p.Metric = o.Metric
	return p
}
