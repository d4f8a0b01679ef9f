package experiments

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// The oracle-vs-learned gap experiment: the paper hands every protocol a
// globally measured ETX table (§4.1.2); a deployable system learns that
// state over the air (§3.2.1(b)) and pays for it twice — probe/LSA frames
// share the medium with data, and routes computed from noisy windowed
// estimates are not quite the oracle's. Gap quantifies both costs from one
// oracle run and one learned run of the same flows: `moresim -state learned`
// feeds it a spec and its oracle twin, GapChurnRun the two sides of a
// crash/recover cycle.

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
	Flows int

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

// Gap reports the gap between an oracle run and a learned-state run of the
// same flows over the same topology and seed.
func Gap(oracle, learned RunInfo) GapReport {
	rep := GapReport{
		Flows:       len(learned.Results),
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

// GapChurnRun runs the same flows from the oracle and from learned state
// with a crash/recover cycle injected into both sides: the ground truth
// flips underneath the protocols (topology mutation + node silencing +
// oracle invalidation), and the learned side additionally measures how long
// the measurement plane takes to purge the dead origin and to re-learn it
// after recovery. Each side runs on its own topology clone, so churn in one
// cannot leak into the other.
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

	rep.GapReport = Gap(oracle, learned)
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
