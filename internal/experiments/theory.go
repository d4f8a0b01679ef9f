package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/stats"
)

// --- Figure 4-7: batch size -----------------------------------------------------

// Fig47Result holds per-batch-size throughput samples for MORE and ExOR.
type Fig47Result struct {
	BatchSizes []int
	MORE       map[int][]float64
	ExOR       map[int][]float64
}

// Fig47BatchSize sweeps K over batchSizes for both MORE and ExOR across
// nPairs random pairs (the paper sweeps {8,16,32,64,128} over 40 pairs).
// The K × pair × protocol grid fans out over opts.Parallel workers.
func Fig47BatchSize(topo *graph.Topology, batchSizes []int, nPairs int, opts Options) *Fig47Result {
	res := &Fig47Result{
		BatchSizes: batchSizes,
		MORE:       map[int][]float64{},
		ExOR:       map[int][]float64{},
	}
	pairs := RandomPairs(topo, nPairs, opts.Seed)
	type variant struct {
		k     int
		proto Protocol
	}
	var variants []variant
	for _, k := range batchSizes {
		variants = append(variants, variant{k, MORE}, variant{k, ExOR})
	}
	samples := sweep(len(variants), len(pairs), opts, func(v, i int, o Options) float64 {
		o.BatchSize = variants[v].k
		return Run(topo, variants[v].proto, pairs[i], o).Throughput()
	})
	for v, variant := range variants {
		series := res.MORE
		if variant.proto == ExOR {
			series = res.ExOR
		}
		series[variant.k] = samples[v]
	}
	return res
}

// sensitivity returns max-over-K median / min-over-K median for a protocol:
// 1.0 means batch size does not matter at all.
func (r *Fig47Result) sensitivity(series map[int][]float64) float64 {
	lo, hi := -1.0, -1.0
	for _, k := range r.BatchSizes {
		m := stats.Median(series[k])
		if lo < 0 || m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// Table renders per-K medians.
func (r *Fig47Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s\n", "K", "MORE median", "ExOR median")
	for _, k := range r.BatchSizes {
		fmt.Fprintf(&b, "%-6d %12.1f %12.1f\n",
			k, stats.Median(r.MORE[k]), stats.Median(r.ExOR[k]))
	}
	fmt.Fprintf(&b, "sensitivity (max/min median): MORE %.2fx, ExOR %.2fx\n",
		r.sensitivity(r.MORE), r.sensitivity(r.ExOR))
	return b.String()
}

// --- Table 4.1: computational cost of packet operations -------------------------

// Table41Result reports measured per-operation costs.
type Table41Result struct {
	K           int
	PayloadSize int
	// Durations per operation (averages over many iterations).
	IndependenceCheck time.Duration
	SourceCoding      time.Duration
	Decoding          time.Duration
}

// Table41CodingCost measures the three §4.6 micro-operations on this
// machine with the paper's parameters (K=32, 1500 B): the innovativeness
// check on a received packet, coding one packet at the source (K
// multiplications per byte), and per-packet decoding work. It exercises the
// pooled, steady-state pipeline — the same configuration
// coding.TestSteadyStateZeroAllocs locks at 0 allocs/op.
func Table41CodingCost(k, payload, iters int) Table41Result {
	rng := rand.New(rand.NewSource(1))
	natives := make([][]byte, k)
	for i := range natives {
		natives[i] = make([]byte, payload)
		rng.Read(natives[i])
	}
	src, err := coding.NewSource(natives, rng)
	if err != nil {
		panic(err)
	}
	pool := coding.NewPool(k, payload)
	src.UsePool(pool)

	// Source coding cost, packets recycled as a steady-state source would.
	start := time.Now()
	for i := 0; i < iters; i++ {
		pool.Put(src.Next())
	}
	srcCost := time.Since(start) / time.Duration(iters)

	// Independence check cost: against a buffer of rank K−1, whose one
	// empty slot is the last, so a random vector is eliminated against all
	// K−1 rows (a full buffer answers without eliminating).
	buf := coding.NewBuffer(k, payload)
	buf.UsePool(pool)
	for buf.Rank() < k-1 {
		buf.Add(src.Next())
	}
	vectors := make([][]byte, iters)
	vecBuf := make([]byte, iters*k)
	for i := range vectors {
		vectors[i] = vecBuf[i*k : (i+1)*k]
		p := src.Next()
		copy(vectors[i], p.Vector)
		pool.Put(p)
	}
	start = time.Now()
	sink := false
	for i := 0; i < iters; i++ {
		sink = sink != buf.Innovative(vectors[i])
	}
	checkCost := time.Since(start) / time.Duration(iters)
	_ = sink

	// Decoding: K innovative packets plus the matrix inversion and batched
	// native recovery, amortized per packet. One decoder and one pool serve
	// every batch, as at a real destination.
	pkts := make([]*coding.Packet, k+8)
	for i := range pkts {
		pkts[i] = src.Next()
	}
	dec := coding.NewDecoder(k, payload)
	dec.UsePool(pool)
	start = time.Now()
	decoded := 0
	for decoded < iters {
		dec.Reset()
		for i := 0; !dec.Complete() && i < len(pkts); i++ {
			q := pool.Get()
			q.CopyFrom(pkts[i])
			dec.Add(q)
		}
		if dec.Complete() {
			if _, err := dec.Decode(); err != nil {
				panic(err)
			}
		}
		decoded += k
	}
	decCost := time.Duration(0)
	if decoded > 0 {
		decCost = time.Since(start) / time.Duration(decoded)
	}

	return Table41Result{
		K: k, PayloadSize: payload,
		IndependenceCheck: checkCost,
		SourceCoding:      srcCost,
		Decoding:          decCost,
	}
}

// sustainableMbps estimates the throughput the coding path supports: one
// source-coding operation per transmitted packet (§4.6(a)'s 44 Mb/s bound
// on the Celeron).
func (r Table41Result) sustainableMbps() float64 {
	if r.SourceCoding <= 0 {
		return 0
	}
	pktsPerSec := float64(time.Second) / float64(r.SourceCoding)
	return pktsPerSec * float64(r.PayloadSize) * 8 / 1e6
}

// Table renders Table 4.1.
func (r Table41Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "operation              avg time\n")
	fmt.Fprintf(&b, "independence check     %8v\n", r.IndependenceCheck)
	fmt.Fprintf(&b, "coding at the source   %8v\n", r.SourceCoding)
	fmt.Fprintf(&b, "decoding (per packet)  %8v\n", r.Decoding)
	fmt.Fprintf(&b, "sustainable throughput %.0f Mb/s\n", r.sustainableMbps())
	return b.String()
}

// --- §4.6: header overhead -------------------------------------------------------

// HeaderOverheadResult reports the on-air MORE header cost.
type HeaderOverheadResult struct {
	HeaderBytes int
	PktBytes    int
	Fraction    float64
}

// HeaderOverhead computes the §4.6(c) numbers: header size with K-byte code
// vector and the 10-forwarder bound, as a fraction of a 1500 B packet.
func HeaderOverhead(k, pktBytes int) HeaderOverheadResult {
	h := packet.MOREHeader{
		Type:       packet.TypeData,
		CodeVector: make([]byte, k),
		Forwarders: make([]packet.Forwarder, packet.MaxForwarders),
	}
	size := h.EncodedSize()
	return HeaderOverheadResult{
		HeaderBytes: size,
		PktBytes:    pktBytes,
		Fraction:    float64(size) / float64(pktBytes),
	}
}

// --- Figure 5-1 / Prop. 6: unbounded cost gap -------------------------------------

// GapPoint is one (p, gap) sample of the Fig 5-1 curve for a fixed k.
type GapPoint struct {
	P   float64
	Gap float64
}

// Fig51CostGap evaluates the ETX-order/EOTX-order cost ratio on the gap
// topology for each delivery probability in ps.
func Fig51CostGap(k int, ps []float64) []GapPoint {
	etxOpt := routing.ETXOptions{Threshold: 0, AckAware: false}
	out := make([]GapPoint, 0, len(ps))
	for _, p := range ps {
		topo := graph.GapTopology(k, p)
		gap, err := routing.CostGap(topo, 0, graph.NodeID(3+k), etxOpt)
		if err != nil {
			continue
		}
		out = append(out, GapPoint{P: p, Gap: gap})
	}
	return out
}

// --- §5.7: ETX vs EOTX on the testbed ----------------------------------------------

// Sec57Result summarizes the order-choice impact across all pairs.
type Sec57Result struct {
	Pairs                int
	Unaffected           int
	MedianAffectedGapPct float64
	MaxGap               float64
}

// Sec57EOTXvsETX computes the §5.7 statistics over every source-destination
// pair of the topology: the fraction of flows whose total transmission cost
// is unchanged by EOTX ordering, and the median gap among affected flows
// (the thesis finds >40% unaffected and a 0.2% median gap). The per-pair
// cost-gap computations fan out over `parallel` workers; aggregation runs
// serially in pair order so the statistics are worker-count independent.
func Sec57EOTXvsETX(topo *graph.Topology, parallel int) Sec57Result {
	etxOpt := routing.ETXOptions{Threshold: 0, AckAware: false}
	n := topo.N()
	gaps := make([]float64, n*n) // NaN = unreachable or self
	ForEach(n*n, parallel, func(it int) {
		src, dst := it/n, it%n
		if src == dst {
			gaps[it] = math.NaN()
			return
		}
		gap, err := routing.CostGap(topo, graph.NodeID(src), graph.NodeID(dst), etxOpt)
		if err != nil {
			gaps[it] = math.NaN()
			return
		}
		gaps[it] = gap
	})
	var res Sec57Result
	var affectedGaps []float64
	for _, gap := range gaps {
		if math.IsNaN(gap) {
			continue
		}
		res.Pairs++
		if gap <= 1+1e-9 {
			res.Unaffected++
		} else {
			affectedGaps = append(affectedGaps, 100*(gap-1))
		}
		if gap > res.MaxGap {
			res.MaxGap = gap
		}
	}
	res.MedianAffectedGapPct = stats.Median(affectedGaps)
	return res
}

// Table renders the §5.7 summary.
func (r Sec57Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pairs: %d\n", r.Pairs)
	fmt.Fprintf(&b, "unaffected by EOTX order: %d (%.0f%%)\n",
		r.Unaffected, 100*float64(r.Unaffected)/float64(r.Pairs))
	fmt.Fprintf(&b, "median gap among affected: %.2f%%\n", r.MedianAffectedGapPct)
	fmt.Fprintf(&b, "max gap: %.3fx\n", r.MaxGap)
	return b.String()
}
