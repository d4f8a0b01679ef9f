package experiments

import "repro/internal/sim"

// The oracle-vs-learned gap experiment: the paper hands every protocol a
// globally measured ETX table (§4.1.2); a deployable system learns that
// state over the air (§3.2.1(b)) and pays for it twice — probe/LSA frames
// share the medium with data, and routes computed from noisy windowed
// estimates are not quite the oracle's. Gap quantifies both costs from one
// oracle run and one learned run of the same flows: `moresim -state learned`
// feeds it a spec and its oracle twin.

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
