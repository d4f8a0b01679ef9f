package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestbedTopology returns the canonical simulated testbed every figure
// runs over: the first fully-connected 20-node draw (§4.1).
func TestbedTopology() *graph.Topology {
	topo, _ := graph.ConnectedTestbed(1)
	return topo
}

// --- Figure 4-2 / 4-3: unicast throughput ------------------------------------

// ThroughputResult holds per-pair throughputs for the compared protocols.
type ThroughputResult struct {
	Pairs      []Pair
	Throughput map[Protocol][]float64 // pkt/s, aligned with Pairs
}

// Fig42UnicastThroughput runs MORE, ExOR, and Srcr between nPairs random
// pairs and returns per-pair throughputs (the paper uses 200 pairs over a
// 5 MB file; scale with opts).
func Fig42UnicastThroughput(topo *graph.Topology, nPairs int, opts Options) *ThroughputResult {
	return compare(func(int) *graph.Topology { return topo }, RandomPairs(topo, nPairs, opts.Seed), opts)
}

// compare runs MORE, ExOR and Srcr on every pair, pair i over topo(i), and
// returns the per-pair throughputs.
func compare(topo func(i int) *graph.Topology, pairs []Pair, opts Options) *ThroughputResult {
	protos := []Protocol{MORE, ExOR, Srcr}
	samples := sweep(len(protos), len(pairs), opts, func(v, i int, o Options) float64 {
		return Run(topo(i), protos[v], pairs[i], o).Throughput()
	})
	res := &ThroughputResult{Pairs: pairs, Throughput: map[Protocol][]float64{}}
	for v, proto := range protos {
		res.Throughput[proto] = samples[v]
	}
	return res
}

// medianGain returns median(a)/median(b) - 1 as a percentage.
func (r *ThroughputResult) medianGain(a, b Protocol) float64 {
	ma := stats.Median(r.Throughput[a])
	mb := stats.Median(r.Throughput[b])
	if mb == 0 {
		return math.Inf(1)
	}
	return 100 * (ma/mb - 1)
}

// maxGain returns the maximum per-pair ratio a/b.
func (r *ThroughputResult) maxGain(a, b Protocol) float64 {
	gains := stats.GainVsBaseline(r.Throughput[a], r.Throughput[b])
	max := 0.0
	for _, g := range gains {
		if g > max {
			max = g
		}
	}
	return max
}

// Table renders the figure's summary rows.
func (r *ThroughputResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s\n", "proto", "p10", "median", "p90", "mean")
	for _, proto := range []Protocol{Srcr, ExOR, MORE} {
		if _, ok := r.Throughput[proto]; !ok {
			continue
		}
		s := stats.Summarize(r.Throughput[proto])
		fmt.Fprintf(&b, "%-8s %8.1f %8.1f %8.1f %8.1f\n", proto, s.P10, s.Median, s.P90, s.Mean)
	}
	fmt.Fprintf(&b, "MORE vs ExOR median gain: %+.0f%%\n", r.medianGain(MORE, ExOR))
	fmt.Fprintf(&b, "MORE vs Srcr median gain: %+.0f%%  (max %.1fx)\n",
		r.medianGain(MORE, Srcr), r.maxGain(MORE, Srcr))
	return b.String()
}

// CDFs returns the plotted series of Fig 4-2.
func (r *ThroughputResult) CDFs() map[Protocol]*stats.CDF {
	out := map[Protocol]*stats.CDF{}
	for proto, xs := range r.Throughput {
		out[proto] = stats.NewCDF(xs)
	}
	return out
}

// ChallengedGain quantifies Fig 4-3's observation: the median gain of
// opportunistic routing over Srcr among the bottom half of Srcr flows
// (challenged) vs the top half.
func (r *ThroughputResult) ChallengedGain(proto Protocol) (bottom, top float64) {
	type pair struct{ base, op float64 }
	var ps []pair
	for i := range r.Pairs {
		ps = append(ps, pair{r.Throughput[Srcr][i], r.Throughput[proto][i]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].base < ps[j].base })
	half := len(ps) / 2
	gain := func(sl []pair) float64 {
		var gs []float64
		for _, p := range sl {
			if p.base > 0 {
				gs = append(gs, p.op/p.base)
			}
		}
		return stats.Median(gs)
	}
	return gain(ps[:half]), gain(ps[half:])
}

// --- Figure 4-4: spatial reuse ------------------------------------------------

// Fig44SpatialReuse runs the three protocols over pairs whose best path is
// ≥ minHops hops with a concurrency opportunity between first and last hop.
// Such pairs are scarce on a 20-node testbed (under 7% of flows have ≥4-hop
// paths, §4.2.3), so the experiment runs over corridor topologies where they
// arise naturally, collecting up to nPairs.
func Fig44SpatialReuse(nPairs int, opts Options) *ThroughputResult {
	var topos []*graph.Topology
	var pairs []Pair
	for seed := int64(1); len(pairs) < nPairs && seed < 200; seed++ {
		topo := graph.Corridor(14, 360, 15, 28, seed)
		for _, p := range SpatialReusePairs(topo, 4) {
			topos = append(topos, topo)
			pairs = append(pairs, p)
			if len(pairs) >= nPairs {
				break
			}
		}
	}
	return compare(func(i int) *graph.Topology { return topos[i] }, pairs, opts)
}

// --- Figure 4-5: multiple flows ------------------------------------------------

// Fig45Result holds per-flow-count average throughput (mean ± std over
// repeated random runs).
type Fig45Result struct {
	FlowCounts []int
	Avg        map[Protocol][]float64
	Std        map[Protocol][]float64
}

// Fig45MultiFlow measures average per-flow throughput with 1..maxFlows
// concurrent flows, averaging over runs random draws each (the paper runs
// 40). The flow-count × draw × protocol grid fans out over opts.Parallel
// workers; pair drawing stays serial so the sampled workloads are
// independent of the worker count.
func Fig45MultiFlow(topo *graph.Topology, maxFlows, runs int, opts Options) *Fig45Result {
	protos := []Protocol{MORE, ExOR, Srcr}
	type cell struct {
		pairs []Pair
		seed  int64
	}
	cells := make([]cell, 0, maxFlows*runs)
	for nf := 1; nf <= maxFlows; nf++ {
		for run := 0; run < runs; run++ {
			pairSeed := opts.Seed + int64(run*7919+nf)
			pairs := RandomPairs(topo, nf, pairSeed)
			if len(pairs) < nf {
				pairs = nil // undrawable; keep the grid shape
			}
			cells = append(cells, cell{pairs: pairs, seed: pairSeed})
		}
	}
	// avg[proto][cell] is that cell's per-flow average throughput.
	avg := sweep(len(protos), len(cells), opts, func(v, i int, o Options) float64 {
		if cells[i].pairs == nil {
			return 0
		}
		o.Seed = cells[i].seed
		rs := RunDetailed(topo, protos[v], cells[i].pairs, o).Results
		var sum float64
		for _, r := range rs {
			sum += r.Throughput()
		}
		return sum / float64(len(rs))
	})
	res := &Fig45Result{
		Avg: map[Protocol][]float64{},
		Std: map[Protocol][]float64{},
	}
	for nf := 1; nf <= maxFlows; nf++ {
		res.FlowCounts = append(res.FlowCounts, nf)
		for v, proto := range protos {
			var samples []float64
			for ci := (nf - 1) * runs; ci < nf*runs; ci++ {
				if cells[ci].pairs != nil {
					samples = append(samples, avg[v][ci])
				}
			}
			s := stats.Summarize(samples)
			res.Avg[proto] = append(res.Avg[proto], s.Mean)
			res.Std[proto] = append(res.Std[proto], s.Std)
		}
	}
	return res
}

// Table renders Fig 4-5's bars.
func (r *Fig45Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "flows")
	for _, proto := range []Protocol{Srcr, ExOR, MORE} {
		fmt.Fprintf(&b, " %16s", proto)
	}
	b.WriteString("\n")
	for i, nf := range r.FlowCounts {
		fmt.Fprintf(&b, "%-8d", nf)
		for _, proto := range []Protocol{Srcr, ExOR, MORE} {
			fmt.Fprintf(&b, " %9.1f ± %4.1f", r.Avg[proto][i], r.Std[proto][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Figure 4-6: autorate -------------------------------------------------------

// Fig46Result compares Srcr (fixed and autorate) with opportunistic routing
// at a fixed 11 Mb/s over a rate-dependent channel.
type Fig46Result struct {
	Pairs      []Pair
	Throughput map[string][]float64
	// LowRateTxFrac is the fraction of autorate transmissions at 1 Mb/s;
	// LowRateAirFrac is the share of air time they consume (§4.4 reports
	// 23% and ~70%).
	LowRateTxFrac  float64
	LowRateAirFrac float64
}

// Fig46Autorate reproduces §4.4: the channel is rate-dependent; MORE and
// ExOR run at a fixed 11 Mb/s; Srcr runs both at the 5.5 Mb/s reference rate
// and with Onoe autorate.
func Fig46Autorate(topo *graph.Topology, nPairs int, opts Options) *Fig46Result {
	opts.RateDependentChannel = true
	pairs := RandomPairs(topo, nPairs, opts.Seed)
	res := &Fig46Result{Pairs: pairs, Throughput: map[string][]float64{}}

	variants := []struct {
		name  string
		proto Protocol
		rate  sim.Bitrate
	}{
		{"MORE@11", MORE, sim.Rate11},
		{"ExOR@11", ExOR, sim.Rate11},
		{"Srcr@5.5", Srcr, sim.Rate5_5},
		{"Srcr-auto", SrcrAutorate, 0},
	}
	runs := sweep(len(variants), len(pairs), opts, func(v, i int, o Options) RunInfo {
		if variants[v].rate != 0 {
			o.DataRate = variants[v].rate
		}
		return RunDetailed(topo, variants[v].proto, pairs[i:i+1], o)
	})
	var counters []sim.Counters // autorate runs only
	for v, variant := range variants {
		xs := make([]float64, len(pairs))
		for i, info := range runs[v] {
			xs[i] = info.Results[0].Throughput()
			if variant.proto == SrcrAutorate {
				counters = append(counters, info.Counters)
			}
		}
		res.Throughput[variant.name] = xs
	}
	res.LowRateTxFrac, res.LowRateAirFrac = lowRateShares(counters)
	return res
}

// lowRateShares returns the 1 Mb/s share of the runs' transmissions and of
// their air time. Both fold integers (counts, nanoseconds) and divide once,
// so the result does not depend on the order the per-rate maps are walked
// in — a float-seconds sum would, in its last digits.
func lowRateShares(counters []sim.Counters) (txFrac, airFrac float64) {
	var lowTx, allTx int64
	var lowAir, allAir sim.Time
	for _, c := range counters {
		for r, n := range c.TxByRate {
			allTx += n
			if r == sim.Rate1 {
				lowTx += n
			}
		}
		for r, t := range c.AirTimeByRate {
			allAir += t
			if r == sim.Rate1 {
				lowAir += t
			}
		}
	}
	if allTx > 0 {
		txFrac = float64(lowTx) / float64(allTx)
	}
	if allAir > 0 {
		airFrac = float64(lowAir) / float64(allAir)
	}
	return txFrac, airFrac
}

// Table renders the Fig 4-6 summary.
func (r *Fig46Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s\n", "proto", "median", "mean")
	for _, name := range []string{"Srcr@5.5", "Srcr-auto", "ExOR@11", "MORE@11"} {
		s := stats.Summarize(r.Throughput[name])
		fmt.Fprintf(&b, "%-10s %8.1f %8.1f\n", name, s.Median, s.Mean)
	}
	fmt.Fprintf(&b, "autorate 1Mb/s: %.0f%% of transmissions, %.0f%% of air time\n",
		100*r.LowRateTxFrac, 100*r.LowRateAirFrac)
	return b.String()
}

// RobustnessResult summarizes the headline gains across independently
// generated testbed topologies — a check the paper could not run (it had
// one building) but a simulator can: the Fig 4-2 conclusions should not
// hinge on one random topology draw.
type RobustnessResult struct {
	Seeds      []int64
	GainVsExOR []float64 // median MORE/ExOR gain (%) per topology
	GainVsSrcr []float64
}

// Fig42AcrossSeeds reruns the Fig 4-2 comparison over several generated
// testbeds.
func Fig42AcrossSeeds(topologies int, pairsPer int, opts Options) *RobustnessResult {
	res := &RobustnessResult{}
	seed := int64(1)
	for len(res.Seeds) < topologies {
		topo, used := graph.ConnectedTestbed(seed)
		seed = used + 1
		o := opts
		o.Seed = used
		r := Fig42UnicastThroughput(topo, pairsPer, o)
		res.Seeds = append(res.Seeds, used)
		res.GainVsExOR = append(res.GainVsExOR, r.medianGain(MORE, ExOR))
		res.GainVsSrcr = append(res.GainVsSrcr, r.medianGain(MORE, Srcr))
	}
	return res
}

// Table renders the per-topology gains.
func (r *RobustnessResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %14s %14s\n", "seed", "vs ExOR", "vs Srcr")
	for i, s := range r.Seeds {
		fmt.Fprintf(&b, "%-8d %+13.0f%% %+13.0f%%\n", s, r.GainVsExOR[i], r.GainVsSrcr[i])
	}
	fmt.Fprintf(&b, "%-8s %+13.0f%% %+13.0f%%\n", "median",
		stats.Median(r.GainVsExOR), stats.Median(r.GainVsSrcr))
	return b.String()
}
