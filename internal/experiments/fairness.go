package experiments

import (
	"math"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/sim"
)

// The multi-flow fairness plane: with flow IDs stamped through the MAC
// (sim.Frame.FlowID / Counters.TxByFlow) every run can report each flow's
// own throughput and transmission bill, and summarize how evenly the
// medium was shared with Jain's fairness index — the metrics the
// congestion-policy comparison is judged on.

// JainIndex returns Jain's fairness index over the values:
// (Σx)² / (n·Σx²), ranging from 1/n (one value takes everything) to 1
// (perfectly even). Values must be non-negative; an empty or all-zero set
// reports 0. Non-finite values (the throughput of a flow whose measured
// interval collapsed to zero, a stalled flow's NaN ratio) count as zero
// shares instead of poisoning the whole index with NaN.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// finiteOrZero clamps a per-flow ratio to a reportable value: a stalled or
// zero-duration flow yields NaN/Inf arithmetic, which would otherwise leak
// into JSON output (and break digest-sealed result documents, which cannot
// encode NaN at all).
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// FlowSummary is one flow's share of a multi-flow run.
type FlowSummary struct {
	Flow     flow.ID
	Src, Dst graph.NodeID
	// Throughput is the flow's delivered packets/second.
	Throughput float64
	// Transmissions is the flow's own data-frame transmission count
	// (stamped flow IDs, including protocol-level ACKs and MAC retries).
	Transmissions int64
	// TxPerPacket is Transmissions over the flow's delivered packets.
	TxPerPacket float64
	Completed   bool
}

// FairnessReport summarizes how a multi-flow run shared the medium.
type FairnessReport struct {
	Flows []FlowSummary
	// JainThroughput is Jain's index over per-flow throughput (1 = every
	// flow got the same rate).
	JainThroughput float64
	// JainTx is Jain's index over per-flow transmission counts (how evenly
	// the airtime bill spread).
	JainTx float64
	// ControlTx counts transmissions attributable to no flow (probes,
	// LSAs, credit grants).
	ControlTx int64
}

// buildFairness assembles the per-flow fairness report from the results
// and the run's per-flow transmission counters. Flow IDs follow the driver
// convention: flow i (0-based result index) is flow.ID(i+1).
func buildFairness(results []flow.Result, counters sim.Counters) FairnessReport {
	rep := FairnessReport{ControlTx: counters.TxByFlow[0]}
	tputs := make([]float64, 0, len(results))
	txs := make([]float64, 0, len(results))
	for i, r := range results {
		fs := FlowSummary{
			Flow: flow.ID(i + 1), Src: r.Src, Dst: r.Dst,
			Throughput:    finiteOrZero(r.Throughput()),
			Transmissions: counters.TxByFlow[uint32(i+1)],
			Completed:     r.Completed,
		}
		if r.PacketsDelivered > 0 {
			fs.TxPerPacket = finiteOrZero(float64(fs.Transmissions) / float64(r.PacketsDelivered))
		}
		rep.Flows = append(rep.Flows, fs)
		tputs = append(tputs, fs.Throughput)
		txs = append(txs, float64(fs.Transmissions))
	}
	rep.JainThroughput = JainIndex(tputs)
	rep.JainTx = JainIndex(txs)
	return rep
}
