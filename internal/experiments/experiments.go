// Package experiments reproduces the thesis' evaluation (Chapter 4) and
// theory measurements (Chapter 5): one driver per table and figure, all
// running the three protocols over the simulated testbed with the §4.1.2
// setup (20 nodes, 5.5 Mb/s, 1500 B packets, K = 32). Beyond the paper it
// adds the oracle-vs-learned gap reducers of learned.go, which price the
// paper's free global ETX oracle against the §3.2.1(b) measurement plane
// run inside the simulation.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/exor"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/linkstate"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/srcr"
	"repro/internal/telemetry"
)

// Protocol selects the routing protocol under test.
type Protocol int

// The compared protocols (§4.1.1), plus Srcr with Onoe autorate (§4.4).
const (
	MORE Protocol = iota
	ExOR
	Srcr
	SrcrAutorate
)

// MarshalText renders the protocol name, letting Protocol-keyed maps
// marshal to readable JSON (cmd/morebench -json).
func (p Protocol) MarshalText() ([]byte, error) {
	return []byte(p.String()), nil
}

func (p Protocol) String() string {
	switch p {
	case MORE:
		return "MORE"
	case ExOR:
		return "ExOR"
	case Srcr:
		return "Srcr"
	case SrcrAutorate:
		return "Srcr-autorate"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// StateMode selects the routing-state provider for a run.
type StateMode int

// The two control planes: the global oracle of §4.1.2's pre-measurement
// step, and the over-the-air learned state of §3.2.1(b).
const (
	StateOracle StateMode = iota
	StateLearned
)

func (m StateMode) String() string {
	switch m {
	case StateOracle:
		return "oracle"
	case StateLearned:
		return "learned"
	default:
		return fmt.Sprintf("StateMode(%d)", int(m))
	}
}

// MarshalText lets StateMode fields render readably in -json output.
func (m StateMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses the MarshalText form back (JSON round trips).
func (m *StateMode) UnmarshalText(text []byte) error {
	v, err := parseStateMode(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// parseStateMode parses the String form of a StateMode.
func parseStateMode(s string) (StateMode, error) {
	switch s {
	case "oracle":
		return StateOracle, nil
	case "learned":
		return StateLearned, nil
	default:
		return 0, fmt.Errorf("experiments: unknown state mode %q (want oracle or learned)", s)
	}
}

// Options parameterizes a transfer run.
type Options struct {
	// FileBytes per transfer (paper: 5 MB; scaled down by default so the
	// full suite runs in minutes).
	FileBytes int
	// PktSize is the packet payload size (1500 B).
	PktSize int
	// BatchSize is K for MORE and ExOR (32).
	BatchSize int
	// DataRate fixes the 802.11b data rate (5.5 Mb/s in most experiments).
	DataRate sim.Bitrate
	// RateDependentChannel scales delivery probabilities with the transmit
	// rate (graph.RateScale); required for the autorate experiment.
	RateDependentChannel bool
	// Seed drives the simulator and workload.
	Seed int64
	// Parallel bounds the worker pool the figure drivers fan their
	// independent runs out over; 0 or 1 runs serially. Per-run seeds are
	// derived from Seed and the item index, never from worker identity, so
	// every figure is byte-identical for any Parallel value. When Telemetry
	// is set the drivers force serial execution: the sink is shared and
	// concurrent sims would interleave into it.
	Parallel int
	// Deadline bounds each run's simulated transfer time, measured from
	// when flows start (after any learned-state warmup).
	Deadline sim.Time
	// Telemetry, when set, receives every typed simulation event
	// (sim.Simulator.Telem). Pass a *telemetry.Hub for metrics and the
	// flight recorder, or any other telemetry.Sink for a single consumer.
	// A shared sink forces the figure drivers serial.
	Telemetry telemetry.Sink
	// Metric selects forwarder ordering for MORE/ExOR (default ETX).
	Metric routing.OrderMetric
	// State selects where routing state comes from: StateOracle (default)
	// hands every node the global ground-truth ETX table, as the paper's
	// pre-measurement step does; StateLearned runs the §3.2.1(b)
	// measurement plane inside the simulation — every node probes, floods
	// LSAs, and routes from its own locally converged loss-annotated graph.
	State StateMode
	// LinkState configures the measurement plane for learned-state runs.
	// The zero value uses linkstate.DefaultConfig().
	LinkState linkstate.Config
	// Warmup is how long the measurement plane runs before flows start in
	// learned-state runs. Zero uses the 30 s default; negative disables
	// the warmup entirely (flows start cold, measuring convergence under
	// load). The transfer deadline starts after the warmup, so oracle and
	// learned flows get the same simulated transfer time.
	Warmup sim.Time
	// CC configures the congestion-control layer between every node's
	// protocol and MAC. The zero value (policy "none") installs no layer:
	// every protocol hands its frames straight to its MAC.
	CC congest.Config
	// Repair arms the protocols' route-repair watchdogs (core/exor
	// Config.RepairInterval, srcr's FIN-stall reroute): a source stalled
	// for this long replans from current routing state instead of spinning
	// on a dead route. Zero (the default) arms no watchdog: a source
	// replans only at its protocol's own boundaries (batch completion, ARQ
	// pass).
	Repair sim.Time
}

// DefaultOptions returns the paper's setup at a simulation-friendly file
// size (512 KB instead of 5 MB; the throughput *ratios* are file-size
// independent once transfers span many batches).
func DefaultOptions() Options {
	return Options{
		FileBytes: 512 << 10,
		PktSize:   1500,
		BatchSize: 32,
		DataRate:  sim.Rate5_5,
		Seed:      1,
		Deadline:  3600 * sim.Second,
		Metric:    routing.OrderETX,
	}
}

// senseRange extends every run's carrier sense by geometry (meters; see
// sim.Config.SenseRange): 3x the channel's 50%-delivery distance, so a
// flow's source and forwarders mostly share the medium, as on the paper's
// 20-node indoor testbed.
const senseRange = 3 * graph.MidRange

func (o Options) file(seed int64) flow.File {
	return flow.NewFile(o.FileBytes, o.PktSize, seed)
}

// SimConfig derives the simulator configuration for a run.
func (o Options) SimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.DataRate = o.DataRate
	cfg.SenseRange = senseRange
	cfg.RefFrameBytes = o.PktSize
	if o.RateDependentChannel {
		cfg.RateAdjust = sim.AdaptRateScale(graph.RateScale)
	}
	return cfg
}

// planOpts returns the forwarder-plan options for MORE/ExOR sources.
func (o Options) planOpts() routing.PlanOptions {
	p := routing.DefaultPlanOptions()
	p.Metric = o.Metric
	return p
}

// coreConfig, exorConfig, and srcrConfig assemble the per-protocol node
// configurations for a run. The engine builds every node from these, so an
// Options knob wired in here reaches every runner — flag-driven and
// declarative — at once.

func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.BatchSize = o.BatchSize
	cfg.PayloadSize = o.PktSize
	cfg.Plan = o.planOpts()
	cfg.RepairInterval = o.Repair
	return cfg
}

func (o Options) exorConfig() exor.Config {
	cfg := exor.DefaultConfig()
	cfg.BatchSize = o.BatchSize
	cfg.PayloadSize = o.PktSize
	cfg.Plan = o.planOpts()
	cfg.RepairInterval = o.Repair
	return cfg
}

func (o Options) srcrConfig(autorate bool) srcr.Config {
	cfg := srcr.DefaultConfig()
	cfg.PayloadSize = o.PktSize
	cfg.Autorate = autorate
	cfg.RepairInterval = o.Repair
	return cfg
}

// workers returns the driver worker count: Parallel, forced serial when a
// telemetry sink is installed (one shared sink must not be fed from
// concurrent simulations).
func (o Options) workers() int {
	if o.Telemetry != nil {
		return 1
	}
	return o.Parallel
}

// Pair is a source-destination pair.
type Pair struct {
	Src, Dst graph.NodeID
}

// RandomPairs draws n distinct reachable pairs over the topology.
func RandomPairs(topo *graph.Topology, n int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	opt := routing.DefaultETXOptions()
	seen := map[Pair]bool{}
	var out []Pair
	guard := 0
	for len(out) < n {
		guard++
		if guard > 100*n+1000 {
			break
		}
		p := Pair{
			Src: graph.NodeID(rng.Intn(topo.N())),
			Dst: graph.NodeID(rng.Intn(topo.N())),
		}
		if p.Src == p.Dst || seen[p] {
			continue
		}
		tab := routing.ETXToDestination(topo, p.Dst, opt)
		if math.IsInf(tab.Dist[p.Src], 1) {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// Run transfers one file between a single source-destination pair with the
// given protocol and returns the destination-side result.
func Run(topo *graph.Topology, proto Protocol, p Pair, opts Options) flow.Result {
	return RunDetailed(topo, proto, []Pair{p}, opts).Results[0]
}

// RunWithCounters runs len(pairs) concurrent flows of the same protocol and
// returns the per-flow destination-side results plus the run's medium-level
// counters (used by the autorate analysis, §4.4).
func RunWithCounters(topo *graph.Topology, proto Protocol, pairs []Pair, opts Options) ([]flow.Result, sim.Counters) {
	info := RunDetailed(topo, proto, pairs, opts)
	return info.Results, info.Counters
}

// RunInfo is the full outcome of a run: per-flow results, medium counters,
// and — for learned-state runs — the measurement plane's convergence and
// overhead accounting.
type RunInfo struct {
	Results  []flow.Result
	Counters sim.Counters

	// State echoes the routing-state mode the run used.
	State StateMode
	// Convergence is the simulated time at which every node's LSA database
	// first covered every origin (full topology knowledge). 0 for oracle
	// runs; -1 if the warmup ended before full coverage.
	Convergence sim.Time
	// ProbeTx and FloodTx count the measurement plane's transmissions
	// (probe broadcasts; own + rebroadcast LSAs) across all nodes. They are
	// included in Counters.Transmissions — control traffic shares the
	// medium with data, which is exactly the cost under study.
	ProbeTx, FloodTx int64

	// CC echoes the congestion policy the run used, and CCStats aggregates
	// every node's congestion-layer accounting (zero when the policy is
	// "none").
	CC      congest.Policy
	CCStats congest.Stats
	// Fairness summarizes the per-flow outcome (per-flow throughput and
	// transmissions, Jain's fairness index).
	Fairness FairnessReport

	// Telemetry is the metrics snapshot when Options.Telemetry was a
	// *telemetry.Hub; nil otherwise, and omitted from JSON so legacy
	// output is unchanged.
	Telemetry *telemetry.Report `json:",omitempty"`
}

// ControlPlane carries the per-run control-plane wiring: one routing-state
// provider per node (the same oracle for every node, or a per-node learned
// view), the link-state agents behind learned views, and the congestion
// layers wrapped around the data protocols.
type ControlPlane struct {
	n         int
	providers []flow.RoutingState
	agents    []*linkstate.Agent
	oracle    *flow.Oracle
	cc        congest.Config
	layers    []*congest.Layer

	// convAt is converged's cursor: every agent before it held all n
	// origins when converged last looked.
	convAt int
}

// viewRecompute rate-limits each node's learned-view rebuilds: at most one
// topology/table recomputation per second of simulated time.
const viewRecompute = sim.Second

// NewControlPlane builds the control plane for a run over topo.
func NewControlPlane(topo *graph.Topology, opts Options) *ControlPlane {
	n := topo.N()
	cp := &ControlPlane{n: n, providers: make([]flow.RoutingState, n), cc: opts.CC}
	if opts.State == StateLearned {
		cp.agents = make([]*linkstate.Agent, n)
		for i := range cp.agents {
			cp.agents[i] = linkstate.NewAgent(opts.LinkState, n)
			cp.providers[i] = linkstate.NewView(cp.agents[i], routing.DefaultETXOptions(), viewRecompute)
		}
		return cp
	}
	cp.oracle = flow.NewOracle(topo, routing.DefaultETXOptions())
	for i := range cp.providers {
		cp.providers[i] = cp.oracle
	}
	return cp
}

// attach installs the node's data protocol, wrapping it in a congestion
// layer when one is configured and stacking the link-state agent above it
// (higher priority: control frames are small and periodic) when the run
// learns its state over the air.
func (cp *ControlPlane) attach(s *sim.Simulator, id graph.NodeID, p sim.Protocol) {
	if cp.cc.Policy != congest.None {
		l := congest.New(cp.cc, p)
		cp.layers = append(cp.layers, l)
		p = l
	}
	if cp.agents != nil {
		s.Attach(id, sim.NewStack(cp.agents[id], p))
		return
	}
	s.Attach(id, p)
}

// converged reports whether every agent's LSA database covers every origin.
// It is asked after every warm-up event, so it resumes at the first agent
// that was short last time, and checks every agent again only when that
// cursor reaches the end: aging (MaxAge) can take an origin from an agent
// the cursor has passed.
func (cp *ControlPlane) converged() bool {
	for i := cp.convAt; i < len(cp.agents); i++ {
		if cp.agents[i].KnownOrigins() < cp.n {
			cp.convAt = i
			return false
		}
	}
	cp.convAt = len(cp.agents)
	for i, a := range cp.agents {
		if a.KnownOrigins() < cp.n {
			cp.convAt = i
			return false
		}
	}
	return true
}

// controlTx sums the measurement plane's transmissions (probe broadcasts,
// own + rebroadcast LSAs) across all nodes.
func (cp *ControlPlane) controlTx() (probeTx, floodTx int64) {
	for _, a := range cp.agents {
		probeTx += a.ProbeTx()
		floodTx += a.FloodTx
	}
	return probeTx, floodTx
}

// ccStats aggregates every congestion layer's accounting.
func (cp *ControlPlane) ccStats() congest.Stats {
	var st congest.Stats
	for _, l := range cp.layers {
		st.Add(l.Stats)
	}
	return st
}

// queuedData counts frames currently held in congestion-layer queues —
// traffic pulled from the protocols but not yet on the air. Queues
// stranded on failed nodes are excluded: they will never drain.
func (cp *ControlPlane) queuedData() int {
	total := 0
	for _, l := range cp.layers {
		if n := l.Node(); n != nil && n.Failed() {
			continue
		}
		total += l.QueueLen()
	}
	return total
}

// RunDetailed is the full-fidelity runner behind RunWithCounters: len(pairs)
// concurrent file transfers of one protocol, all starting at the traffic
// epoch, reported with convergence and control-plane overhead alongside the
// results.
func RunDetailed(topo *graph.Topology, proto Protocol, pairs []Pair, opts Options) RunInfo {
	flows := make([]Flow, len(pairs))
	for i, p := range pairs {
		flows[i] = Flow{Proto: proto, Src: p.Src, Dst: p.Dst, File: opts.file(opts.Seed + int64(i))}
	}
	return Execute(topo, opts, flows, nil).Finish()
}

// SpatialReusePairs finds source-destination pairs whose best ETX path has
// at least minHops hops and whose first-hop transmitter is outside carrier
// sense range of the last-hop transmitter — Fig 4-4's selection rule ("the
// last hop can transmit concurrently with the first hop"). It senses as
// every run's simulator does: sim.SenseThreshold by probability, senseRange
// by geometry.
func SpatialReusePairs(topo *graph.Topology, minHops int) []Pair {
	opt := routing.DefaultETXOptions()
	senses := func(a, b graph.NodeID) bool {
		return topo.Prob(a, b) > sim.SenseThreshold || topo.Pos[a].Distance(topo.Pos[b]) <= senseRange
	}
	var out []Pair
	for dst := 0; dst < topo.N(); dst++ {
		tab := routing.ETXToDestination(topo, graph.NodeID(dst), opt)
		for src := 0; src < topo.N(); src++ {
			if src == dst {
				continue
			}
			path := tab.Path(graph.NodeID(src))
			if path == nil || len(path)-1 < minHops {
				continue
			}
			firstTx := path[0]
			lastTx := path[len(path)-2]
			if !senses(firstTx, lastTx) && !senses(lastTx, firstTx) {
				out = append(out, Pair{Src: graph.NodeID(src), Dst: graph.NodeID(dst)})
			}
		}
	}
	return out
}
