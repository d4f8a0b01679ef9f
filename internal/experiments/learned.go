package experiments

import (
	"repro/internal/graph"
	"repro/internal/linkstate"
	"repro/internal/sim"
)

// The oracle-vs-learned gap experiment: the paper hands every protocol a
// globally measured ETX table (§4.1.2); a deployable system learns that
// state over the air (§3.2.1(b)) and pays for it twice — probe/LSA frames
// share the medium with data, and routes computed from noisy windowed
// estimates are not quite the oracle's. GapRun quantifies both costs for
// one configuration; GapSweep maps them against the two knobs that control
// the measurement plane's fidelity/overhead trade-off, the probe window and
// the LSA advertise interval.

// GapSummary aggregates one run side (oracle or learned) of a gap
// comparison.
type GapSummary struct {
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

// summarize folds a RunInfo into a GapSummary.
func summarize(info RunInfo) GapSummary {
	g := GapSummary{Transmissions: info.Counters.Transmissions}
	delivered := 0
	for _, r := range info.Results {
		if r.Completed {
			g.Completed++
		}
		delivered += r.PacketsDelivered
		g.Throughput += r.Throughput()
	}
	// A run that delivered nothing reports 0 tx/pkt, not NaN: the gap
	// report is emitted as JSON, which cannot encode NaN (a silent
	// marshal failure would swallow the whole document).
	if delivered > 0 {
		g.TxPerPacket = float64(info.Counters.Transmissions) / float64(delivered)
		g.DataTxPerPacket = float64(info.Counters.Transmissions-info.ProbeTx-info.FloodTx) / float64(delivered)
	}
	return g
}

// GapReport compares one protocol's oracle and learned runs over the same
// topology, flows, and seed.
type GapReport struct {
	Protocol Protocol
	Flows    int

	Oracle  GapSummary
	Learned GapSummary

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

// GapRun runs the same flows twice — once from the oracle, once from
// learned state — and reports the gap. Everything but Options.State (and
// the learned-side measurement knobs) is held identical.
func GapRun(topo *graph.Topology, proto Protocol, pairs []Pair, opts Options) GapReport {
	oOpts := opts
	oOpts.State = StateOracle
	lOpts := opts
	lOpts.State = StateLearned

	oracle := RunDetailed(topo, proto, pairs, oOpts)
	learned := RunDetailed(topo, proto, pairs, lOpts)

	rep := GapReport{
		Protocol:    proto,
		Flows:       len(pairs),
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

// ChurnSpec injects one crash/recover cycle into both sides of a churn gap
// run. Times are measured from flow start (after any learned warmup).
type ChurnSpec struct {
	// Node crashes at FailAt and — when RecoverAt > FailAt — comes back at
	// RecoverAt. It should relay, not source or sink, the measured flows.
	Node      graph.NodeID
	FailAt    sim.Time
	RecoverAt sim.Time // <= FailAt: the node never comes back
	// Poll is the reconvergence sampling period (default 100 ms).
	Poll sim.Time
}

// ChurnReport extends GapReport with the learned control plane's
// post-event reconvergence times — how long the liveness and aging
// machinery (probe.Config.DeadInterval, linkstate.Config.MaxAge) takes to
// react to each half of the churn cycle.
type ChurnReport struct {
	GapReport
	// FailPurge is crash -> every live agent has dropped the dead origin's
	// LSA from its database (-1: not within the run, or liveness/aging are
	// disabled and the stale LSA lives forever).
	FailPurge sim.Time
	// RecoverRelearn is recovery -> every agent holds the reborn origin's
	// LSA again (-1: not within the run, or the node never recovers).
	RecoverRelearn sim.Time
}

// GapChurnRun is GapRun with a crash/recover cycle injected into both
// sides: the ground truth flips underneath the protocols (topology
// mutation + node silencing + oracle invalidation), and the learned side
// additionally measures how long the measurement plane takes to purge the
// dead origin and to re-learn it after recovery. Each side runs on its own
// topology clone, so churn in one cannot leak into the other.
func GapChurnRun(topo *graph.Topology, proto Protocol, pairs []Pair, opts Options, churn ChurnSpec) ChurnReport {
	poll := churn.Poll
	if poll <= 0 {
		poll = 100 * sim.Millisecond
	}
	rep := ChurnReport{FailPurge: -1, RecoverRelearn: -1}

	// watch polls cond from now on and stores the time it took to hold.
	watch := func(x *Execution, cond func(*ControlPlane, graph.NodeID) bool, took *sim.Time) {
		since := x.Sim.Now()
		var tick func()
		tick = func() {
			if cond(x.cp, churn.Node) {
				*took = x.Sim.Now() - since
				return
			}
			x.Sim.After(poll, tick)
		}
		x.Sim.After(poll, tick)
	}
	actions := func(t *graph.Topology, measure bool) []Action {
		acts := []Action{{At: churn.FailAt, Do: func(x *Execution) {
			t.Isolate(churn.Node)
			x.Sim.FailNode(churn.Node)
			if x.Oracle != nil {
				x.Oracle.Invalidate()
			}
			if measure {
				watch(x, purgedFromAll, &rep.FailPurge)
			}
		}}}
		if churn.RecoverAt <= churn.FailAt {
			return acts
		}
		return append(acts, Action{At: churn.RecoverAt, Do: func(x *Execution) {
			t.Restore(churn.Node)
			x.Sim.RecoverNode(churn.Node)
			if x.Oracle != nil {
				x.Oracle.Invalidate()
			}
			if measure {
				watch(x, knownToAll, &rep.RecoverRelearn)
			}
		}})
	}

	oTopo, lTopo := topo.Clone(), topo.Clone()
	oOpts := opts
	oOpts.State = StateOracle
	lOpts := opts
	lOpts.State = StateLearned

	oracle := runPairs(oTopo, proto, pairs, oOpts, actions(oTopo, false))
	learned := runPairs(lTopo, proto, pairs, lOpts, actions(lTopo, true))

	rep.GapReport = GapReport{
		Protocol:    proto,
		Flows:       len(pairs),
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

// purgedFromAll reports whether every agent other than the dead origin's
// own has dropped origin's LSA.
func purgedFromAll(cp *ControlPlane, origin graph.NodeID) bool {
	for i, a := range cp.agents {
		if graph.NodeID(i) == origin {
			continue // a node's own entry never expires
		}
		if a.Knows(origin) {
			return false
		}
	}
	return true
}

// knownToAll reports whether every agent holds origin's LSA.
func knownToAll(cp *ControlPlane, origin graph.NodeID) bool {
	for _, a := range cp.agents {
		if !a.Knows(origin) {
			return false
		}
	}
	return true
}

// GapSweepConfig parameterizes the gap sweep over measurement-plane knobs.
type GapSweepConfig struct {
	// Windows lists probe window sizes (probes averaged per estimate);
	// larger windows smooth estimates but slow adaptation.
	Windows []int
	// AdvertiseIntervals lists LSA flood periods; shorter floods converge
	// faster but burn more airtime.
	AdvertiseIntervals []sim.Time
	// Damping lists LSA flood-damping trigger deltas (linkstate.Config.
	// TriggerDelta; 0 = undamped) — the third knob of the grid, added so
	// the sweep quantifies the frame savings of triggered updates +
	// hold-down against the fidelity they cost. Empty sweeps only 0.
	Damping []float64
	// Protocol under test.
	Protocol Protocol
	// Flows is the number of concurrent random flows (≥1).
	Flows int
	// Opts carries topology-independent options (file size, seed,
	// deadline, parallelism, warmup).
	Opts Options

	// Nodes, when positive, replaces the paper testbed with a connected
	// random-geometric mesh of that size (graph.DefaultGeometric density),
	// so the sweep can ask the 512–1024-node questions the 20-node testbed
	// cannot — where does the measurement plane saturate the medium, and
	// what does scoping buy. Flows are drawn with RandomPairs.
	Nodes int
	// ScopeRings, SummaryInterval, and Piggyback apply fisheye scoping and
	// data-frame piggybacking to every grid point (linkstate.Config); zero
	// values keep every flood network-wide, the classic behavior.
	ScopeRings      []int
	SummaryInterval sim.Time
	Piggyback       bool
}

// DefaultGapSweepConfig sweeps MORE over the paper testbed with a small
// probe-window × advertise-interval grid.
func DefaultGapSweepConfig() GapSweepConfig {
	opts := DefaultOptions()
	opts.FileBytes = 64 << 10
	return GapSweepConfig{
		Windows:            []int{5, 10, 20},
		AdvertiseIntervals: []sim.Time{2 * sim.Second, 5 * sim.Second, 10 * sim.Second},
		Protocol:           MORE,
		Flows:              1,
		Opts:               opts,
	}
}

// StateGapPoint is one row of the sweep: the measurement-plane knobs plus the
// resulting gap.
type StateGapPoint struct {
	Window    int
	Advertise sim.Time
	Damping   float64
	// Nodes is the topology size the point ran on (the testbed's 20 unless
	// GapSweepConfig.Nodes overrode it); FloodTx/Nodes is the per-node
	// flood bill scoping is judged on.
	Nodes int
	GapReport
}

// GapSweep runs GapRun at every (window, advertise-interval) grid point
// over the testbed topology, fanned over cfg.Opts.Parallel workers. Results
// are deterministic in cfg.Opts.Seed for any worker count (each point is a
// hermetic pair of simulations).
func GapSweep(cfg GapSweepConfig) []StateGapPoint {
	if cfg.Flows < 1 {
		cfg.Flows = 1
	}
	damping := cfg.Damping
	if len(damping) == 0 {
		damping = []float64{0}
	}
	type knob struct {
		window    int
		advertise sim.Time
		damping   float64
	}
	var grid []knob
	for _, w := range cfg.Windows {
		for _, adv := range cfg.AdvertiseIntervals {
			for _, d := range damping {
				grid = append(grid, knob{w, adv, d})
			}
		}
	}
	points := make([]StateGapPoint, len(grid))
	forEach(len(grid), cfg.Opts.workers(), func(i int) {
		var topo *graph.Topology
		var pairs []Pair
		if cfg.Nodes > 0 {
			gcfg := graph.DefaultGeometric(cfg.Nodes)
			topo, _ = graph.ConnectedGeometric(gcfg, cfg.Opts.Seed)
			pairs = RandomPairs(topo, cfg.Flows, cfg.Opts.Seed)
		} else {
			topo = TestbedTopology()
			pairs = []Pair{{Src: 3, Dst: 17}}
			if cfg.Flows > 1 {
				pairs = RandomPairs(topo, cfg.Flows, cfg.Opts.Seed)
			}
		}
		opts := cfg.Opts
		lcfg := linkstate.DefaultConfig()
		lcfg.Probe.Window = grid[i].window
		lcfg.AdvertiseInterval = grid[i].advertise
		lcfg.TriggerDelta = grid[i].damping
		lcfg.ScopeRings = cfg.ScopeRings
		lcfg.SummaryInterval = cfg.SummaryInterval
		lcfg.Piggyback = cfg.Piggyback
		opts.LinkState = lcfg
		points[i] = StateGapPoint{
			Window:    grid[i].window,
			Advertise: grid[i].advertise,
			Damping:   grid[i].damping,
			Nodes:     topo.N(),
			GapReport: GapRun(topo, cfg.Protocol, pairs, opts),
		}
	})
	return points
}
