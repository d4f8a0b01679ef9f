package telemetry

import (
	"math/bits"
	"sort"

	"repro/internal/stats"
)

// Hist is a latency histogram over int64 nanosecond samples: power-of-two
// log buckets always, plus the exact sample values while the population is
// small (histExactCap). Quantiles are exact from the retained samples —
// via stats.Percentile, which shares the NaN/Inf hardening of the rest of
// the stats plane — and bucket-interpolated beyond the cap.
type Hist struct {
	buckets [65]int64
	count   int64
	sum     int64
	max     int64
	exact   []float64
}

// histExactCap bounds the retained exact samples per histogram (64 KiB).
const histExactCap = 8192

// Observe records one sample. Negative samples clamp to zero (a latency
// cannot be negative; a clock regression would be a simulator bug).
func (h *Hist) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
	h.buckets[bits.Len64(uint64(ns))]++
	if h.count <= histExactCap {
		h.exact = append(h.exact, float64(ns))
	} else {
		h.exact = nil // beyond the cap quantiles come from the buckets
	}
}

// Quantile returns the p-th percentile (0..100) in nanoseconds, 0 for an
// empty histogram.
func (h *Hist) Quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if h.exact != nil {
		sorted := append([]float64(nil), h.exact...)
		sort.Float64s(sorted)
		return stats.Percentile(sorted, p)
	}
	// Bucket interpolation: find the bucket holding the target rank and
	// interpolate linearly inside its value range [2^(b-1), 2^b).
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(h.count-1)
	var cum int64
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, hi := bucketRange(b)
			if hi > h.max {
				hi = h.max
			}
			frac := (rank - float64(cum)) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	return float64(h.max)
}

// bucketRange returns the value range [lo, hi] covered by bucket b.
func bucketRange(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 0
	}
	lo = int64(1) << (b - 1)
	if b >= 63 {
		return lo, int64(1)<<62 + (int64(1)<<62 - 1)
	}
	return lo, int64(1)<<b - 1
}

// LatencySummary is a histogram's exported shape: sample count and the
// headline percentiles, in milliseconds.
type LatencySummary struct {
	Count  int64
	P50Ms  float64
	P95Ms  float64
	P99Ms  float64
	MeanMs float64
	MaxMs  float64
}

const msPerNs = 1e-6

// Summary exports the histogram.
func (h *Hist) Summary() LatencySummary {
	if h.count == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  h.count,
		P50Ms:  h.Quantile(50) * msPerNs,
		P95Ms:  h.Quantile(95) * msPerNs,
		P99Ms:  h.Quantile(99) * msPerNs,
		MeanMs: float64(h.sum) / float64(h.count) * msPerNs,
		MaxMs:  float64(h.max) * msPerNs,
	}
}

// nodeMetrics aggregates per-node counters and the queue-wait histogram.
type nodeMetrics struct {
	tx, macAcks, rx        int64
	collisions, chanLosses int64
	enqueued, queueDrops   int64
	queueMax               int64
	grants, floods         int64
	replans, stalls        int64
	queueWait              Hist
}

// flowMetrics aggregates per-flow delivery accounting and latency.
type flowMetrics struct {
	delivered      int64
	batches        int64
	deadlineMisses int64
	delivery       Hist // per-packet source-to-sink latency
	decode         Hist // per-batch start-to-decode latency
}

// metricsState is the Hub's registry.
type metricsState struct {
	deadlineNS int64
	nodes      map[int32]*nodeMetrics
	flows      map[uint32]*flowMetrics
	// batchStart and pktSend correlate start events with their matching
	// decode/delivery: key flow<<32|batch (or |seq), value the first-seen
	// timestamp. Entries are deleted on the matching completion, so the
	// maps stay bounded by in-flight work.
	batchStart map[uint64]int64
	pktSend    map[uint64]int64
}

func (m *metricsState) init(deadlineNS int64) {
	m.deadlineNS = deadlineNS
	m.nodes = make(map[int32]*nodeMetrics)
	m.flows = make(map[uint32]*flowMetrics)
	m.batchStart = make(map[uint64]int64)
	m.pktSend = make(map[uint64]int64)
}

func (m *metricsState) node(id int32) *nodeMetrics {
	n := m.nodes[id]
	if n == nil {
		n = &nodeMetrics{}
		m.nodes[id] = n
	}
	return n
}

func (m *metricsState) flow(id uint32) *flowMetrics {
	f := m.flows[id]
	if f == nil {
		f = &flowMetrics{}
		m.flows[id] = f
	}
	return f
}

func flowKey(flow uint32, sub uint32) uint64 {
	return uint64(flow)<<32 | uint64(sub)
}

func (m *metricsState) observe(ev Event) {
	switch ev.Kind {
	case KindTx:
		n := m.node(ev.Node)
		if ev.Aux != 0 {
			n.macAcks++
		} else {
			n.tx++
		}
	case KindRx:
		m.node(ev.Node).rx++
	case KindDrop:
		n := m.node(ev.Node)
		if ev.Aux == DropCollision {
			n.collisions++
		} else {
			n.chanLosses++
		}
	case KindEnqueue:
		n := m.node(ev.Node)
		n.enqueued++
		if ev.Aux > n.queueMax {
			n.queueMax = ev.Aux
		}
	case KindDequeue:
		m.node(ev.Node).queueWait.Observe(ev.Dur)
	case KindQueueDrop:
		m.node(ev.Node).queueDrops++
	case KindGrant:
		m.node(ev.Node).grants++
	case KindLSAFlood:
		m.node(ev.Node).floods++
	case KindBatchStart:
		key := flowKey(ev.Flow, ev.Batch)
		if _, seen := m.batchStart[key]; !seen {
			// A stall-repair restart re-announces the batch; latency is
			// measured from the first start, when the data became due.
			m.batchStart[key] = ev.At
		}
	case KindBatchDecode:
		f := m.flow(ev.Flow)
		f.batches++
		f.delivered += ev.Aux
		key := flowKey(ev.Flow, ev.Batch)
		if start, ok := m.batchStart[key]; ok {
			delete(m.batchStart, key)
			lat := ev.At - start
			f.decode.Observe(lat)
			// Every packet in the batch becomes usable at decode time:
			// that is its delivery latency (batched coding trades exactly
			// this latency for throughput, the trade the metrics exist to
			// price).
			for i := int64(0); i < ev.Aux; i++ {
				f.delivery.Observe(lat)
			}
			if m.deadlineNS > 0 && lat > m.deadlineNS {
				f.deadlineMisses += ev.Aux
			}
		}
	case KindPktSend:
		key := flowKey(ev.Flow, uint32(ev.Aux))
		if _, seen := m.pktSend[key]; !seen {
			m.pktSend[key] = ev.At
		}
	case KindPktDeliver:
		f := m.flow(ev.Flow)
		f.delivered++
		key := flowKey(ev.Flow, uint32(ev.Aux))
		if start, ok := m.pktSend[key]; ok {
			delete(m.pktSend, key)
			lat := ev.At - start
			f.delivery.Observe(lat)
			if m.deadlineNS > 0 && lat > m.deadlineNS {
				f.deadlineMisses++
			}
		}
	case KindReplan:
		m.node(ev.Node).replans++
	case KindStall:
		m.node(ev.Node).stalls++
	}
}

// FlowReport is one flow's exported metrics.
type FlowReport struct {
	Flow uint32
	// Delivered counts packets delivered end to end.
	Delivered int64
	// Batches counts decoded batches (0 for batch-less flows).
	Batches int64
	// Delivery is the per-packet source-to-sink latency distribution.
	Delivery LatencySummary
	// Decode is the per-batch start-to-decode latency distribution.
	Decode LatencySummary
	// DeadlineMisses counts delivered packets that arrived after the
	// configured deadline; DeadlineMissRate is the missed fraction of
	// latency-sampled deliveries (0 when no deadline is set).
	DeadlineMisses   int64
	DeadlineMissRate float64
}

// NodeReport is one node's exported metrics.
type NodeReport struct {
	Node                   int32
	Tx, MACAcks, Rx        int64
	Collisions, ChanLosses int64
	Enqueued, QueueDrops   int64
	QueueMax               int64
	// QueueWait is the congestion-layer queue-wait distribution.
	QueueWait               Hist `json:"-"`
	QueueWaitSummary        LatencySummary
	Grants, Floods, Replans int64
	Stalls                  int64
}

// Report is the Hub's exported snapshot: deterministic (sorted) and
// JSON-stable, the block moresim -metrics writes and scenario results
// embed when telemetry is on.
type Report struct {
	// Events is the total event count the Hub received.
	Events int64
	// DeadlineNS echoes the configured per-packet deadline (0 = none).
	DeadlineNS int64 `json:",omitempty"`
	// Stalls counts watchdog stall declarations (full post-mortems via
	// Hub.Stalls).
	Stalls int64 `json:",omitempty"`
	Flows  []FlowReport
	Nodes  []NodeReport
}

// Report builds the exported snapshot.
func (h *Hub) Report() *Report {
	m := &h.metrics
	r := &Report{Events: h.events.Load(), DeadlineNS: m.deadlineNS}
	flowIDs := make([]uint32, 0, len(m.flows))
	for id := range m.flows {
		flowIDs = append(flowIDs, id)
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	for _, id := range flowIDs {
		f := m.flows[id]
		fr := FlowReport{
			Flow:           id,
			Delivered:      f.delivered,
			Batches:        f.batches,
			Delivery:       f.delivery.Summary(),
			Decode:         f.decode.Summary(),
			DeadlineMisses: f.deadlineMisses,
		}
		if m.deadlineNS > 0 && f.delivery.count > 0 {
			fr.DeadlineMissRate = float64(f.deadlineMisses) / float64(f.delivery.count)
		}
		r.Flows = append(r.Flows, fr)
	}
	nodeIDs := make([]int32, 0, len(m.nodes))
	for id := range m.nodes {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })
	for _, id := range nodeIDs {
		n := m.nodes[id]
		r.Nodes = append(r.Nodes, NodeReport{
			Node: id, Tx: n.tx, MACAcks: n.macAcks, Rx: n.rx,
			Collisions: n.collisions, ChanLosses: n.chanLosses,
			Enqueued: n.enqueued, QueueDrops: n.queueDrops, QueueMax: n.queueMax,
			QueueWaitSummary: n.queueWait.Summary(),
			Grants:           n.grants, Floods: n.floods, Replans: n.replans,
			Stalls: n.stalls,
		})
		r.Stalls += n.stalls
	}
	return r
}

// FlowMetrics returns the report entry for one flow (zero value if the
// flow emitted nothing) — a test and tooling convenience.
func (r *Report) FlowMetrics(flow uint32) FlowReport {
	for _, f := range r.Flows {
		if f.Flow == flow {
			return f
		}
	}
	return FlowReport{}
}
