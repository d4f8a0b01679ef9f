// Command moresim runs file transfers over a chosen topology and protocol
// and reports the results — the quick way to poke at the system.
//
//	moresim -proto more -topo testbed -src 3 -dst 17 -file 786432
//	moresim -proto srcr -topo diamond -verbose
//	moresim -scenario scenarios/push-choke.json -json
//
// Flags are shorthand for a declarative scenario: specFromFlags renders the
// flag set as a scenario.Spec and admits it through the strict loader a
// -scenario file goes through, so a knob means the same thing on the command
// line and in a versionable file (see scenarios/). A single run — flags or
// file — prints one report, or with -json the digest-sealed, byte-stable
// result document cmd/scenariocheck verifies. Four modes run a list of specs
// over -parallel workers (per-spec results identical to serial runs) and
// print a table of their own, JSON rows with -json:
//
//	moresim -proto all                           # four specs: one pair, every protocol
//	moresim -state learned -proto more           # the spec and its oracle twin: the gap
//	moresim -scale 125,250,500,1000 -flows 2     # one geometric spec per node count
//	moresim -scale 128,256 -flows 4 -cc-sweep    # ... per congestion policy as well
//
// The telemetry plane rides on any single run: -metrics writes latency
// percentiles and per-node counters, -trace-out a Chrome-trace-event file
// (either one, given "-", to stdout ahead of the run's own output),
// -deadline-ms arms the per-packet miss rate, -progress a stderr heartbeat,
// -trace prints a per-node activity timeline; stall post-mortems print to
// stderr the moment a repair watchdog fires. -cpuprofile and -memprofile
// write runtime/pprof profiles of the run itself (not of flag handling or
// report printing):
//
//	moresim -proto more -metrics metrics.json -trace-out trace.json
//	moresim -scenario scenarios/learned-512.json -progress 5 -cpuprofile cpu.out
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// cli is the parsed command line.
type cli struct {
	proto, topo, state, metric, cc string
	scale, scopeRings, scenario    string
	parallel, nodes, flows         int
	degree, floors, src, dst       int
	file, k, ccQueue               int
	seed                           int64
	drop, warmup, advertise, damp  float64
	summaryS, simDeadline          float64
	jsonOut, piggyback, ccSweep    bool
	verbose, trace                 bool
	tc                             telemetryCLI
	prof                           profileCLI

	// set holds the flags given on the command line: a knob that does not
	// apply to the run is carried into the spec only when it was asked for,
	// so Validate can refuse it instead of the run dropping it silently.
	set map[string]bool
}

// parseFlags registers moresim's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (*cli, error) {
	c := &cli{set: map[string]bool{}}
	vocab := scenario.Vocabulary()
	oneOf := func(key string) string { return strings.Join(vocab[key], ", ") }
	fs.StringVar(&c.proto, "proto", "more", "protocol: "+strings.Join(pullProtocols(), ", ")+", or all (comparison)")
	fs.IntVar(&c.parallel, "parallel", experiments.AutoParallel(), "worker goroutines for the modes that run several specs (-proto all, -state learned, -scale)")
	fs.StringVar(&c.topo, "topo", "testbed", "topology: "+oneOf("topology.kind"))
	fs.IntVar(&c.nodes, "nodes", 6, "node count for chain/geometric topologies")
	fs.IntVar(&c.flows, "flows", 1, "concurrent flows over seeded random reachable pairs")
	fs.Float64Var(&c.drop, "drop", 0, "uniform extra drop rate layered over every link (0..1)")
	fs.IntVar(&c.degree, "degree", 10, "target mean neighbor degree for geometric topologies")
	fs.IntVar(&c.floors, "floors", 1, "building floors for geometric topologies")
	fs.StringVar(&c.scale, "scale", "", "comma-separated node counts: run one geometric spec per count and print the scaling table")
	fs.BoolVar(&c.jsonOut, "json", false, "emit machine-readable JSON: the scenario result document for a single run, rows for the table modes")
	fs.IntVar(&c.src, "src", -1, "source node (default: topology-specific)")
	fs.IntVar(&c.dst, "dst", -1, "destination node (default: topology-specific)")
	fs.IntVar(&c.file, "file", 512<<10, "transfer size in bytes")
	fs.IntVar(&c.k, "k", 32, "batch size K for MORE/ExOR")
	fs.Int64Var(&c.seed, "seed", 1, "simulation seed")
	fs.StringVar(&c.metric, "metric", "etx", "forwarder ordering: "+oneOf("metric"))
	fs.StringVar(&c.state, "state", "oracle", "routing state: oracle (global ground truth) or learned (in-sim probes + LSA floods; also runs the oracle twin and reports the gap)")
	fs.Float64Var(&c.warmup, "warmup", 30, "learned-state measurement warmup before flows start (seconds; 0 starts flows cold)")
	fs.Float64Var(&c.advertise, "advertise", 5, "learned-state LSA advertise interval (seconds, > 0)")
	fs.Float64Var(&c.damp, "damp", 0, "learned-state LSA flood damping trigger: advertise only when an estimate moved this much (0 disables; try 0.2)")
	fs.StringVar(&c.scopeRings, "scope-rings", "", "learned-state fisheye scope rings: comma-separated ascending hop radii (e.g. 2,8); near rings get every update, the rest wait for summaries (empty disables scoping)")
	fs.Float64Var(&c.summaryS, "summary-interval", 0, "learned-state network-wide summary flood period with -scope-rings, seconds (0: 8x advertise interval)")
	fs.BoolVar(&c.piggyback, "piggyback", false, "learned-state: ride pending LSAs on outgoing broadcast data frames instead of dedicated floods")
	fs.StringVar(&c.cc, "cc", "none", "congestion control: "+oneOf("cc.policy"))
	fs.IntVar(&c.ccQueue, "cc-queue", 0, "congestion-layer transmit queue bound (0: policy default)")
	fs.BoolVar(&c.ccSweep, "cc-sweep", false, "with -scale: run every congestion policy over the same topologies and print the mitigation table")
	fs.BoolVar(&c.verbose, "verbose", false, "print the first flow's forwarding plan")
	fs.BoolVar(&c.trace, "trace", false, "print a per-node medium activity timeline")
	fs.StringVar(&c.scenario, "scenario", "", "run a declarative scenario spec file (scenarios/*.json) instead of compiling one from flags; run-shaping flags do not combine with it")

	fs.StringVar(&c.tc.metrics, "metrics", "", "write the telemetry metrics report (per-packet latency percentiles, per-node counters, stall count) as JSON to this file (\"-\" for stdout)")
	fs.StringVar(&c.tc.trace, "trace-out", "", "write a Chrome-trace-event JSON file of every telemetry event (load in Perfetto or chrome://tracing; \"-\" for stdout)")
	fs.Float64Var(&c.tc.deadlineMS, "deadline-ms", 0, "per-packet delivery deadline for the telemetry miss rate, in milliseconds (0 disables)")
	fs.Float64Var(&c.simDeadline, "sim-deadline", 0, "simulated transfer deadline in seconds, measured from flow start (0: the 3600 s default); bounds slow learned-state runs at scale")
	fs.Float64Var(&c.tc.progressS, "progress", 0, "print a progress heartbeat (events seen and events/s, simulated clock and sim-seconds per wall-second since the last tick) to stderr every N wall-clock seconds (0 disables)")

	fs.StringVar(&c.prof.cpu, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&c.prof.mem, "memprofile", "", "write a heap profile, taken when the run ends, to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return c, nil
}

func main() {
	c, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2) // the flag package has already said why
	}
	os.Exit(run(c, os.Stdout, os.Stderr))
}

// run executes a parsed command line, writing reports to stdout and
// diagnostics to stderr, and returns the exit code: 2 for a command line
// that does not compile to valid specs, 1 for a failed run, an unwritable
// artifact or a flow that missed its schedule.
func run(c *cli, stdout, stderr io.Writer) int {
	specs, reduce, err := compile(c)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ok, err := execute(c, specs, reduce, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
	}
	if err != nil || !ok {
		return 1
	}
	return 0
}

// execute runs the specs and hands the results to the mode's reducer. It
// reports whether every flow of every run met its schedule.
func execute(c *cli, specs []*scenario.Spec, reduce reducer, stdout, stderr io.Writer) (bool, error) {
	var hub *telemetry.Hub
	var txs *txLog
	if c.tc.active() || c.trace {
		hub = c.tc.newHub(stderr)
		if c.trace {
			txs = new(txLog)
			hub.AddSink(txs)
		}
	}
	stopProgress := c.tc.startProgress(hub, stderr)
	var runs []specRun
	var err error
	perr := c.prof.around(func() { runs, err = runSpecs(specs, c.parallel, hub) })
	stopProgress()
	if perr != nil {
		return false, perr
	}
	if err != nil {
		return false, err
	}
	reportStartErrors(stderr, runs)
	text := stdout // -verbose and -trace; next to -json, stdout is the document alone
	if c.jsonOut {
		text = stderr
	}
	if c.verbose {
		printPlan(text, runs[0])
	}
	if txs != nil {
		fmt.Fprint(text, txs.timeline(0, timelineEnd(runs[0].res.Flows), 96))
	}
	if hub != nil && !c.tc.finish(hub, stdout, stderr) {
		return false, nil
	}
	return reduce(c, stdout, runs)
}

// specRun is one executed spec; wall is the host time it took (not
// deterministic; everything in res is).
type specRun struct {
	spec *scenario.Spec
	res  *scenario.Result
	wall time.Duration
}

// runSpecs runs every spec through scenario.RunWith on up to parallel
// workers. Each run is hermetic (own topology, own simulator, seeds from the
// spec alone), so results do not depend on the worker count. A hub is only
// ever passed with a single spec.
func runSpecs(specs []*scenario.Spec, parallel int, hub *telemetry.Hub) ([]specRun, error) {
	runs := make([]specRun, len(specs))
	errs := make([]error, len(specs))
	experiments.ForEach(len(specs), parallel, func(i int) {
		start := time.Now()
		res, err := scenario.RunWith(specs[i], hub)
		runs[i], errs[i] = specRun{spec: specs[i], res: res, wall: time.Since(start)}, err
	})
	return runs, errors.Join(errs...)
}

// reportStartErrors says why each flow that never started did not — without
// it such a run is a document with Done false and nothing else to go on.
func reportStartErrors(w io.Writer, runs []specRun) {
	for _, r := range runs {
		for _, f := range r.res.Flows {
			if f.StartErr != nil {
				fmt.Fprintf(w, "%s: %s: %v\n", r.spec.Name, f.Name, f.StartErr)
			}
		}
	}
}

// A reducer prints a mode's results to w — one report, or one table over
// several runs (JSON with -json) — and reports whether every flow of every
// run met its schedule.
type reducer func(c *cli, w io.Writer, runs []specRun) (bool, error)

// compile turns the command line into the specs it asks for and the reducer
// that reports them.
func compile(c *cli) ([]*scenario.Spec, reducer, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"deadline-ms", c.tc.deadlineMS}, {"progress", c.tc.progressS}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return nil, nil, fmt.Errorf("-%s must be a finite number >= 0 (0 disables), got %g", f.name, f.v)
		}
	}
	if c.tc.metrics == "-" && c.tc.trace == "-" {
		return nil, nil, fmt.Errorf("-metrics - and -trace-out - would both write to stdout: send one of them to a file")
	}
	if c.scenario != "" {
		// The file is the whole run; a flag that would shape it is a
		// contradiction, not a default to drop.
		for name := range c.set {
			switch name {
			case "scenario", "json", "parallel", "verbose", "trace",
				"metrics", "trace-out", "deadline-ms", "progress", "cpuprofile", "memprofile":
			default:
				return nil, nil, fmt.Errorf("-%s does not combine with -scenario: the spec file describes the whole run", name)
			}
		}
		spec, err := scenario.Load(c.scenario)
		return []*scenario.Spec{spec}, printRun, err
	}
	base, err := specFromFlags(c)
	if err != nil {
		return nil, nil, err
	}
	learned := base.State.Mode == "learned"
	var specs []*scenario.Spec
	variant := func(name string, edit func(*scenario.Spec)) {
		s := *base
		s.Name += name
		s.Flows = append([]scenario.FlowSpec(nil), base.Flows...)
		edit(&s)
		admitted, aerr := admit(&s)
		specs = append(specs, admitted)
		if err == nil {
			err = aerr
		}
	}
	var reduce reducer
	switch {
	case c.scale != "":
		counts, perr := ints("scale", c.scale)
		switch {
		case perr != nil:
			return nil, nil, perr
		case c.proto == "all":
			return nil, nil, fmt.Errorf("-scale needs a single protocol (default: more)")
		case c.ccSweep && learned:
			return nil, nil, fmt.Errorf("-cc-sweep runs the oracle control plane; drop -state learned")
		}
		policies := []string{base.CC.Policy}
		if c.ccSweep {
			policies = scenario.Vocabulary()["cc.policy"]
		}
		for _, policy := range policies {
			for i, n := range counts {
				variant(fmt.Sprintf("-%s-%d", policy, n), func(s *scenario.Spec) {
					// Per-point seeds derive from the seed and the point
					// index alone, so every policy sees the same topologies
					// and pairs.
					s.Seed += int64(i) * 1_000_003
					s.Topology.Nodes = n
					s.CC.Policy = policy
				})
			}
		}
		reduce = printScale
	case c.ccSweep:
		return nil, nil, fmt.Errorf("-cc-sweep needs -scale")
	case c.proto == "all" && learned:
		return nil, nil, fmt.Errorf("-proto all runs the oracle control plane; use -state learned with a single protocol")
	case c.proto == "all" && len(base.Flows) > 1:
		return nil, nil, fmt.Errorf("-proto all compares a single pair; use -flows with one protocol")
	case c.proto == "all":
		for _, proto := range pullProtocols() {
			variant("-"+proto, func(s *scenario.Spec) { s.Flows[0].Protocol = proto })
		}
		reduce = printComparison
	case learned:
		// The gap report: the spec as asked for, then its oracle twin.
		specs = append(specs, base)
		variant("-oracle", func(s *scenario.Spec) { s.State = scenario.StateSpec{} })
		reduce = printGap
	default:
		return []*scenario.Spec{base}, printRun, nil
	}
	if c.tc.active() || c.trace {
		return nil, nil, fmt.Errorf("-trace and the telemetry flags need a single simulation run, not -proto all, -state learned or -scale")
	}
	return specs, reduce, err
}

// pullProtocols lists the protocols that carry a file transfer — what -proto
// takes and -proto all compares: every admitted protocol but push.
func pullProtocols() []string {
	return slices.DeleteFunc(scenario.Vocabulary()["flows.protocol"], func(p string) bool { return p == scenario.ProtoPush })
}

// ints parses a comma-separated integer list flag.
func ints(name, list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -%s entry %q (want comma-separated integers)", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// admit passes a spec through the strict loader, as if it had been read
// from a file: defaults are filled in and every range check — and its
// message — is Spec.Validate's.
func admit(s *scenario.Spec) (*scenario.Spec, error) {
	doc, err := s.Encode()
	if err != nil {
		return nil, err
	}
	return scenario.Parse(doc)
}

// specFromFlags renders the flag set as the scenario it is shorthand for.
// A knob that does not apply (a geometric knob on a chain, a learned-state
// knob under the oracle) is carried only when its flag was given, so the
// loader refuses the contradiction instead of the run dropping it.
func specFromFlags(c *cli) (*scenario.Spec, error) {
	if c.k == 0 || c.advertise == 0 {
		return nil, fmt.Errorf("-k and -advertise must be > 0 (a spec reads 0 as \"the default\")")
	}
	spec := &scenario.Spec{
		Name:      "moresim",
		Seed:      c.seed,
		DeadlineS: 3600,
		Batch:     c.k,
		Topology:  scenario.TopologySpec{Kind: c.topo, Drop: c.drop},
		State:     scenario.StateSpec{Mode: c.state, Damp: c.damp, SummaryIntervalS: c.summaryS, Piggyback: c.piggyback},
		CC:        scenario.CCSpec{Policy: c.cc, Queue: c.ccQueue},
	}
	if c.simDeadline != 0 {
		spec.DeadlineS = c.simDeadline
	}
	if c.metric != "etx" {
		spec.Metric = c.metric
	}

	topo := &spec.Topology
	if c.scale != "" {
		if c.set["topo"] && c.topo != "geometric" {
			return nil, fmt.Errorf("-scale sweeps geometric topologies, not -topo %s", c.topo)
		}
		topo.Kind = "geometric"
	}
	geometric := topo.Kind == "geometric"
	if geometric || topo.Kind == "chain" || c.set["nodes"] {
		topo.Nodes = c.nodes
	}
	if geometric || c.set["degree"] {
		topo.Degree = float64(c.degree)
	}
	if geometric || c.set["floors"] {
		topo.Floors = c.floors
	}

	state, learned := &spec.State, c.state == "learned"
	if learned || c.set["warmup"] {
		state.WarmupS = c.warmup
		if c.warmup <= 0 {
			state.WarmupS = -1 // cold start (0 would read as "the 30 s default")
		}
	}
	if learned || c.set["advertise"] {
		state.AdvertiseS = c.advertise
	}
	if c.scopeRings != "" {
		var err error
		if state.ScopeRings, err = ints("scope-rings", c.scopeRings); err != nil {
			return nil, err
		}
	}

	// Flows: one explicit pair, or seeded random reachable pairs — which a
	// geometric mesh needs even for one flow, since no fixed pair is known
	// to be connected there.
	flows, explicit := c.flows, c.set["src"] || c.set["dst"]
	switch {
	case flows < 1:
		return nil, fmt.Errorf("-flows must be >= 1, got %d", flows)
	case explicit && (flows > 1 || c.scale != ""):
		return nil, fmt.Errorf("-flows > 1 and -scale draw random pairs; they cannot be combined with -src/-dst")
	case geometric && c.set["src"] != c.set["dst"]:
		return nil, fmt.Errorf("geometric topologies draw a random pair; give both -src and -dst or neither")
	}
	for i := 0; i < flows; i++ {
		f := scenario.FlowSpec{
			Name:     fmt.Sprintf("flow-%d", i+1),
			Protocol: c.proto,
			Traffic:  scenario.TrafficSpec{Model: "file", Bytes: c.file},
		}
		if f.Protocol == "all" {
			f.Protocol = "more" // compile rewrites it per comparison row
		}
		switch {
		case flows > 1 || (geometric && !explicit):
			f.AutoPair = true
		case topo.Kind == "testbed":
			f.Src, f.Dst = 3, 17
		default:
			f.Dst = topo.NodeCount() - 1 // end to end: chain, grid, diamond
		}
		if c.src >= 0 {
			f.Src = c.src
		}
		if c.dst >= 0 {
			f.Dst = c.dst
		}
		spec.Flows = append(spec.Flows, f)
	}
	return admit(spec)
}

// printPlan prints the -verbose preamble: the topology's link statistics,
// and the forwarder plan and best ETX path of the first flow's pair (as the
// run resolved it, for an auto-drawn one).
func printPlan(w io.Writer, r specRun) {
	topo, _ := r.spec.Topology.Build(r.spec.Seed) // the run built the same one: cannot fail
	src, dst := r.res.Flows[0].Result.Src, r.res.Flows[0].Result.Dst
	s := topo.LinkStats(graph.RouteThreshold)
	fmt.Fprintf(w, "topology: %d nodes, %d usable links, mean loss %.2f, mean degree %.1f\n",
		topo.N(), s.Links, s.MeanLoss, s.MeanDegree)
	popts := routing.DefaultPlanOptions()
	popts.Metric = r.spec.Options().Metric
	if plan, err := routing.BuildPlan(topo, src, dst, popts); err == nil {
		fmt.Fprintf(w, "plan %d->%d (%s order): cost %.2f\n", src, dst, popts.Metric, plan.TotalCost)
		for _, id := range plan.Participants() {
			fmt.Fprintf(w, "  node %-3d dist=%-7.2f z=%-6.2f credit=%.2f\n",
				id, plan.Dist[id], plan.Z[id], plan.Credit[id])
		}
	}
	etx := routing.ETXToDestination(topo, dst, routing.DefaultETXOptions())
	fmt.Fprintf(w, "best ETX path: %v (ETX %.2f)\n\n", etx.Path(src), etx.Dist[src])
}

// printRun reports a single run, flags or file. With -json it emits the
// canonical result document (byte-identical across runs of the same spec —
// pipe it to cmd/scenariocheck to verify; -trace and the telemetry flags add
// an optional Telemetry block, everything else stays identical).
func printRun(c *cli, w io.Writer, runs []specRun) (bool, error) {
	spec, res := runs[0].spec, runs[0].res
	if c.jsonOut {
		out, err := res.Encode()
		if err != nil {
			return false, err
		}
		_, err = w.Write(out)
		return res.Done(), err
	}
	fmt.Fprintf(w, "scenario: %s (%d nodes, seed %d, state %v, cc %v)\n",
		res.Scenario, res.Nodes, res.Seed, res.State, res.CC)
	if spec.Description != "" {
		fmt.Fprintf(w, "  %s\n", spec.Description)
	}
	fmt.Fprintf(w, "%-12s %-9s %-6s %6s %12s %10s %10s %6s\n",
		"flow", "proto", "model", "s->d", "delivered", "pkt/s", "tx", "done")
	for _, f := range res.Flows {
		fmt.Fprintf(w, "%-12s %-9s %-6v %3d->%-3d %6d/%-6d %10.1f %10d %6v\n",
			f.Name, f.Protocol, f.Traffic, f.Result.Src, f.Result.Dst,
			f.Result.PacketsDelivered, f.Result.PacketsTotal,
			f.Result.Throughput(), f.Result.Transmissions, f.Done)
	}
	fmt.Fprintf(w, "medium: %d data tx, %d collisions, %d channel losses, air time %v, run %v\n",
		res.Counters.Transmissions, res.Counters.Collisions,
		res.Counters.ChannelLosses, res.Counters.AirTime, res.End-res.Epoch)
	if len(res.Flows) > 1 {
		fmt.Fprintf(w, "fairness: Jain(throughput) %.3f, Jain(tx) %.3f, control tx %d\n",
			res.Fairness.JainThroughput, res.Fairness.JainTx, res.Fairness.ControlTx)
	}
	if res.CC != congest.None {
		st := res.CCStats
		fmt.Fprintf(w, "congestion: %d pushed, %d enqueued, %d tail + %d choke + %d stale drops, %d grants, %d probes\n",
			st.Pushed, st.Enqueued, st.TailDrops, st.ChokeDrops, st.StaleDrops, st.GrantTx, st.ProbeSends)
	}
	if res.State == experiments.StateLearned {
		fmt.Fprintf(w, "measurement plane: converged at %v, %d probe tx, %d LSA tx\n",
			res.Convergence, res.ProbeTx, res.FloodTx)
	}
	fmt.Fprintf(w, "digest: %s\n", res.Digest)
	return res.Done(), nil
}

// comparisonRow is one row of the -proto all table: one protocol's run of
// the pair. Every field is deterministic in the seed.
type comparisonRow struct {
	Protocol      string
	Src, Dst      graph.NodeID
	FileBytes     int
	Throughput    float64  // delivered packets/second
	Transmissions int64    // run-wide
	Done          bool     // the flow completed within the deadline
	AirTime       sim.Time // run-wide
}

// printComparison is the -proto all table: every protocol over one pair,
// JSON rows with -json.
func printComparison(c *cli, w io.Writer, runs []specRun) (bool, error) {
	rows, allDone := make([]comparisonRow, len(runs)), true
	for i, r := range runs {
		f := r.res.Flows[0]
		rows[i] = comparisonRow{
			Protocol: f.Protocol, Src: f.Result.Src, Dst: f.Result.Dst, FileBytes: c.file,
			Throughput: f.Result.Throughput(), Transmissions: r.res.Counters.Transmissions,
			Done: f.Done, AirTime: r.res.Counters.AirTime,
		}
		allDone = allDone && f.Done
	}
	if c.jsonOut {
		return allDone, printJSON(w, rows)
	}
	fmt.Fprintf(w, "pair %d -> %d, %d B file:\n", rows[0].Src, rows[0].Dst, c.file)
	fmt.Fprintf(w, "%-14s %10s %10s %8s %12s\n", "proto", "pkt/s", "tx", "done", "air time")
	for _, row := range rows {
		fmt.Fprintf(w, "%-14s %10.1f %10d %8v %12v\n", row.Protocol, row.Throughput,
			row.Transmissions, row.Done, row.AirTime)
	}
	return allDone, nil
}

// summary is one run reduced over its flows: the reduction the -state
// learned report and the -scale rows share.
type summary struct {
	// Throughput is the aggregate delivered packets/second across flows.
	Throughput float64
	// TxPerPacket is run-wide transmissions (data + any control sharing
	// the medium, including the warmup's probes and floods) per delivered
	// packet — the total airtime bill of the run.
	TxPerPacket float64
	// DataTxPerPacket excludes the measurement plane's transmissions
	// (probes + LSA floods): the data plane's cost alone, the number to
	// compare against the oracle's TxPerPacket to isolate route
	// suboptimality from control overhead.
	DataTxPerPacket float64
	// Completed counts flows that finished within the deadline.
	Completed int
	// Transmissions is the run-wide transmission count.
	Transmissions int64
}

// summarize reduces a run over its flows.
func summarize(res *scenario.Result) summary {
	s := summary{Transmissions: res.Counters.Transmissions}
	delivered := 0
	for _, f := range res.Flows {
		if f.Result.Completed {
			s.Completed++
		}
		delivered += f.Result.PacketsDelivered
		s.Throughput += f.Result.Throughput()
	}
	// A run that delivered nothing reports 0 tx/pkt, not NaN: JSON cannot
	// encode NaN (Completed disambiguates).
	if delivered > 0 {
		s.TxPerPacket = float64(res.Counters.Transmissions) / float64(delivered)
		s.DataTxPerPacket = float64(res.Counters.Transmissions-res.ProbeTx-res.FloodTx) / float64(delivered)
	}
	return s
}

// gapReport is the oracle-vs-learned gap. The paper hands every protocol a
// globally measured ETX table (§4.1.2); a deployable system learns that
// state over the air (§3.2.1(b)) and pays for it twice — probe/LSA frames
// share the medium with data, and routes computed from noisy windowed
// estimates are not quite the oracle's. The report quantifies both costs
// from a learned-state run and its oracle twin: same topology, flows and
// seed.
type gapReport struct {
	Protocol string // as the spec names it
	Flows    int

	Oracle  summary
	Learned summary

	// ThroughputRatio is learned/oracle aggregate throughput: 1.0 means
	// the measurement plane cost nothing, lower is the gap.
	ThroughputRatio float64
	// TxPerPacketRatio is learned/oracle transmissions per delivered
	// packet: above 1.0 is the control-plane + route-suboptimality cost.
	TxPerPacketRatio float64
	// DataTxPerPacketRatio is the same ratio with the learned side's
	// measurement-plane transmissions excluded: the pure route-quality gap.
	DataTxPerPacketRatio float64

	// Convergence is when every node first held every origin's LSA
	// (-1: the warmup ended before full coverage).
	Convergence sim.Time
	// ProbeTx and FloodTx are the measurement plane's transmissions during
	// the learned run (warmup + transfer).
	ProbeTx, FloodTx int64
}

// gap reduces a learned-state run and its oracle twin to their gap report.
func gap(proto string, oracle, learned *scenario.Result) gapReport {
	rep := gapReport{
		Protocol:    proto,
		Flows:       len(learned.Flows),
		Oracle:      summarize(oracle),
		Learned:     summarize(learned),
		Convergence: learned.Convergence,
		ProbeTx:     learned.ProbeTx,
		FloodTx:     learned.FloodTx,
	}
	if rep.Oracle.Throughput > 0 {
		rep.ThroughputRatio = rep.Learned.Throughput / rep.Oracle.Throughput
	}
	if rep.Oracle.TxPerPacket > 0 {
		rep.TxPerPacketRatio = rep.Learned.TxPerPacket / rep.Oracle.TxPerPacket
		rep.DataTxPerPacketRatio = rep.Learned.DataTxPerPacket / rep.Oracle.TxPerPacket
	}
	return rep
}

// printGap is the -state learned report: the learned-state run against its
// oracle twin. It reports whether every learned-state flow completed.
func printGap(c *cli, w io.Writer, runs []specRun) (bool, error) {
	learned, oracle := runs[0], runs[1]
	rep := gap(c.proto, oracle.res, learned.res)
	done := rep.Learned.Completed == rep.Flows
	if c.jsonOut {
		return done, printJSON(w, struct {
			Nodes int
			Gap   gapReport
		}{learned.res.Nodes, rep})
	}
	fmt.Fprintf(w, "protocol: %s, state: learned (vs oracle), %d flow(s)\n", c.proto, rep.Flows)
	fmt.Fprintf(w, "%-10s %10s %12s %14s %8s\n", "state", "pkt/s", "tx/pkt", "data-tx/pkt", "done")
	side := func(name string, s summary) {
		fmt.Fprintf(w, "%-10s %10.1f %12.2f %14.2f %5d/%-2d\n", name,
			s.Throughput, s.TxPerPacket, s.DataTxPerPacket, s.Completed, rep.Flows)
	}
	side("oracle", rep.Oracle)
	side("learned", rep.Learned)
	fmt.Fprintf(w, "gap: throughput x%.2f, tx/pkt x%.2f (data-only x%.2f)\n",
		rep.ThroughputRatio, rep.TxPerPacketRatio, rep.DataTxPerPacketRatio)
	fmt.Fprintf(w, "measurement plane: converged at %v, %d probe tx, %d LSA tx\n",
		rep.Convergence, rep.ProbeTx, rep.FloodTx)
	return done, nil
}

// scaleRow is one row of the -scale table (with -cc-sweep, one per policy
// and node count): one geometric spec's run, reduced. Every field but
// WallClock is deterministic in the seed.
type scaleRow struct {
	Nodes       int
	SpecSeed    int64 // -topo geometric -nodes Nodes -seed SpecSeed reruns the row alone
	Flows       int
	UsableLinks int
	MeanDegree  float64
	Completed   int      // flows that finished within the deadline
	Throughput  float64  // aggregate delivered packets/second
	TxPerPacket float64  // run-wide transmissions per delivered packet
	SimTime     sim.Time // when the last flow finished
	WallClock   time.Duration

	CC       congest.Policy
	CCStats  congest.Stats
	Fairness experiments.FairnessReport

	// The measurement plane's bill when the point ran from learned state
	// (all zero under the oracle).
	ProbeTx, FloodTx int64
	Convergence      sim.Time
}

// printScale is the -scale / -cc-sweep table: throughput, transmission
// cost, fairness, congestion-layer activity and wall-clock per node count
// (and, under -cc-sweep, per policy over identical topologies and flows).
func printScale(c *cli, w io.Writer, runs []specRun) (bool, error) {
	rows, allDone := scaleRows(runs)
	if c.jsonOut {
		return allDone, printJSON(w, rows)
	}
	spec := runs[0].spec
	fmt.Fprintf(w, "scaling sweep: proto=%s flows=%d drop=%.2f file=%dB degree=%.0f state=%s\n",
		c.proto, len(spec.Flows), c.drop, c.file, spec.Topology.Degree, spec.State.Mode)
	fmt.Fprintf(w, "%-8s %6s %7s %6s %9s %8s %6s %6s %7s %7s %9s %9s %9s\n", "cc", "nodes", "links", "deg",
		"pkt/s", "tx/pkt", "jainT", "done", "grants", "drops", "wall", "probe-tx", "flood-tx")
	for _, row := range rows {
		tpp := "-"
		if row.TxPerPacket != 0 {
			tpp = fmt.Sprintf("%.2f", row.TxPerPacket)
		}
		st := row.CCStats
		fmt.Fprintf(w, "%-8v %6d %7d %6.1f %9.1f %8s %6.3f %3d/%-2d %7d %7d %9v %9d %9d\n",
			row.CC, row.Nodes, row.UsableLinks, row.MeanDegree, row.Throughput, tpp,
			row.Fairness.JainThroughput, row.Completed, row.Flows, st.GrantTx,
			st.TailDrops+st.ChokeDrops+st.StaleDrops, row.WallClock.Round(time.Millisecond),
			row.ProbeTx, row.FloodTx)
	}
	return allDone, nil
}

// scaleRows reduces each run to its table row and reports whether every
// flow of every run completed.
func scaleRows(runs []specRun) (rows []scaleRow, allDone bool) {
	rows, allDone = make([]scaleRow, len(runs)), true
	for i, r := range runs {
		topo, _ := r.spec.Topology.Build(r.spec.Seed) // the run built the same one: cannot fail
		ls, res := topo.LinkStats(graph.RouteThreshold), r.res
		row := scaleRow{
			Nodes: res.Nodes, SpecSeed: res.Seed, Flows: len(res.Flows),
			UsableLinks: ls.Links, MeanDegree: ls.MeanDegree, WallClock: r.wall,
			CC: res.CC, CCStats: res.CCStats, Fairness: res.Fairness,
			ProbeTx: res.ProbeTx, FloodTx: res.FloodTx, Convergence: res.Convergence,
		}
		sum := summarize(res)
		row.Completed, row.Throughput, row.TxPerPacket = sum.Completed, sum.Throughput, sum.TxPerPacket
		for _, f := range res.Flows {
			row.SimTime = max(row.SimTime, f.Result.End)
		}
		rows[i] = row
		allDone = allDone && row.Completed == row.Flows
	}
	return rows, allDone
}

// printJSON writes v to w as indented JSON. A value encoding/json cannot
// encode (a NaN metric) fails the run loudly instead of printing an empty
// document.
func printJSON(w io.Writer, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("moresim: -json: %v", err)
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// profileCLI carries -cpuprofile and -memprofile: where to write the
// runtime/pprof profiles of the run, empty for none.
type profileCLI struct{ cpu, mem string }

// around calls run. CPU samples cover exactly run; the heap profile is
// taken once run returns, after a collection, so it shows what the run left
// live and everything it allocated. A profile file that cannot be created or
// written is the error, named by its flag; when the CPU profile cannot
// start, run is not called.
func (p profileCLI) around(run func()) error {
	var cpu *os.File
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		cpu = f
	}
	run()
	if cpu != nil {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return fmt.Errorf("-cpuprofile: %v", err)
		}
	}
	if p.mem != "" {
		f, err := os.Create(p.mem)
		if err == nil {
			runtime.GC() // bring the live-heap figures up to date
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("-memprofile: %v", err)
		}
	}
	return nil
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
func (tc telemetryCLI) newHub(stderr io.Writer) *telemetry.Hub {
	return telemetry.NewHub(telemetry.Config{
		DeadlineNS:  int64(tc.deadlineMS * 1e6),
		ChromeTrace: tc.trace != "",
		OnStall: func(d telemetry.StallDump) {
			out, err := json.MarshalIndent(d, "", "  ")
			if err != nil {
				fmt.Fprintf(stderr, "moresim: stall dump: %v\n", err)
				return
			}
			fmt.Fprintf(stderr, "moresim: %s at node %d (flow %d, batch %d, t=%v):\n%s\n",
				d.Reason, d.Node, d.Flow, d.Batch, sim.Time(d.At), out)
		},
	})
}

// progressTick is one reading of the heartbeat's inputs: wall time since the
// run began, telemetry events seen, and the simulated clock of the last one.
type progressTick struct {
	wall   time.Duration
	events int64
	simAt  sim.Time
}

// progressLine renders one heartbeat: the running totals, each followed by
// its rate since the previous tick — events per wall second, and simulated
// seconds per wall second (above 1 the simulation outruns the network it
// models). A tick that follows its predecessor by no wall time has no rates.
func progressLine(prev, cur progressTick) string {
	var evRate, simRate float64
	if dt := (cur.wall - prev.wall).Seconds(); dt > 0 {
		evRate = float64(cur.events-prev.events) / dt
		simRate = (cur.simAt - prev.simAt).Seconds() / dt
	}
	return fmt.Sprintf("moresim: %v elapsed, %d events (%.0f/s), sim clock %v (%.3g sim-s/s)",
		cur.wall.Round(time.Second), cur.events, evRate, cur.simAt, simRate)
}

// startProgress launches the stderr heartbeat goroutine and returns its
// stop function. The hub's atomic counters are the only shared state, so
// reading them mid-run is safe; the simulated clock of the last event is
// the best liveness signal a single-threaded simulation can offer.
func (tc telemetryCLI) startProgress(hub *telemetry.Hub, stderr io.Writer) func() {
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
		var prev progressTick
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cur := progressTick{wall: time.Since(start), events: hub.Events(), simAt: sim.Time(hub.LastAt())}
				fmt.Fprintln(stderr, progressLine(prev, cur))
				prev = cur
			}
		}
	}()
	return func() { close(stop); <-done }
}

// finish writes the artifacts the flags requested from a completed run
// ("-metrics -" or "-trace-out -" to stdout), naming on stderr any it could
// not write.
func (tc telemetryCLI) finish(hub *telemetry.Hub, stdout, stderr io.Writer) bool {
	ok := true
	if tc.metrics != "" {
		out, err := json.MarshalIndent(hub.Report(), "", "  ")
		if err == nil {
			err = writeArtifact(tc.metrics, stdout, func(w io.Writer) error {
				_, err := w.Write(append(out, '\n'))
				return err
			})
		}
		if err != nil {
			fmt.Fprintf(stderr, "-metrics: %v\n", err)
			ok = false
		}
	}
	if tc.trace != "" {
		if err := writeArtifact(tc.trace, stdout, hub.WriteChromeTrace); err != nil {
			fmt.Fprintf(stderr, "-trace-out: %v\n", err)
			ok = false
		}
		if n := hub.Truncated(); n > 0 {
			fmt.Fprintf(stderr, "moresim: chrome trace capped, %d events dropped\n", n)
		}
	}
	return ok
}

// writeArtifact writes one artifact to the named file, or to stdout for "-":
// appended to what stdout already carries, where reopening /dev/stdout would
// truncate a redirected file.
func writeArtifact(name string, stdout io.Writer, write func(io.Writer) error) error {
	if name == "-" {
		return write(stdout)
	}
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
