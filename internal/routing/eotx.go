package routing

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// EOTXOptions configures the EOTX computation. It has no knobs: the metric
// prices a forwarder by link loss alone and counts every link the topology
// stores (each has p > 0), since bounding the neighborhood would discard
// opportunistic receptions (§5.1).
type EOTXOptions struct{}

// DefaultEOTXOptions is the loss-only metric over every link the channel
// can deliver on.
func DefaultEOTXOptions() EOTXOptions { return EOTXOptions{} }

// EOTX computes, for every node, the minimum expected number of
// opportunistic transmissions network-wide to deliver one packet from that
// node to dst, assuming independent losses — Algorithm 5 (Dijkstra fashion).
// dist[dst] == 0; unreachable nodes get Inf.
//
// The update follows the thesis exactly: T(i) accumulates
// 1 + Σ (q_ik − q_i(k−1))·d(k) over closed nodes k in ascending cost order,
// P(i) tracks Π(1−p_ik), and d(i) = T(i)/(1−P(i)).
func EOTX(t *graph.Topology, dst graph.NodeID, opt EOTXOptions) []float64 {
	n := t.N()
	d := make([]float64, n)
	T := make([]float64, n)
	P := make([]float64, n)
	closed := make([]bool, n)
	for i := range d {
		d[i] = Inf
		T[i] = 1
		P[i] = 1
	}
	d[dst] = 0

	pq := distHeap{{node: dst, dist: 0}}
	for len(pq) > 0 {
		e := pq.pop()
		k := e.node
		if closed[k] || e.dist > d[k] {
			continue
		}
		closed[k] = true
		if math.IsInf(d[k], 1) {
			break // everything remaining is unreachable
		}
		// Only nodes with a link into k gain from k closing: iterate k's
		// in-edges instead of the whole population.
		for _, in := range t.InEdges(k) {
			i := in.Node
			if closed[i] {
				continue
			}
			p := in.P
			T[i] += float64(p * P[i] * d[k])
			P[i] = float64(P[i] * (1 - p))
			nd := T[i] / (1 - P[i])
			if nd < d[i] {
				d[i] = nd
				pq.push(distEntry{node: i, dist: nd})
			}
		}
	}
	return d
}

// eotxBellmanFord computes the same metric with the Bellman–Ford-style
// Algorithm 4, calling the Recompute procedure (Algorithm 3) for every node
// each round. It exists to validate Algorithm 5 and because the thesis
// argues the BF framework suits distributed computation.
func eotxBellmanFord(t *graph.Topology, dst graph.NodeID) []float64 {
	n := t.N()
	d := make([]float64, n)
	for i := range d {
		d[i] = Inf
	}
	d[dst] = 0
	for round := 0; round < n; round++ {
		next := make([]float64, n)
		next[dst] = 0
		for i := 0; i < n; i++ {
			if graph.NodeID(i) == dst {
				continue
			}
			next[i] = recompute(t, graph.NodeID(i), d)
		}
		changed := false
		for i := range d {
			if math.Abs(next[i]-d[i]) > 1e-12 && !(math.IsInf(next[i], 1) && math.IsInf(d[i], 1)) {
				changed = true
			}
			d[i] = next[i]
		}
		if !changed {
			break
		}
	}
	return d
}

// recompute is Algorithm 3: given tentative costs d for all other nodes, it
// returns node i's cost using the closed form (5.15), admitting candidate
// forwarders in ascending cost order while they improve the estimate.
func recompute(t *graph.Topology, i graph.NodeID, d []float64) float64 {
	// Candidates in ascending d order.
	out := t.OutEdges(i)
	cand := make([]graph.NodeID, 0, len(out))
	for _, e := range out {
		if !math.IsInf(d[e.Node], 1) {
			cand = append(cand, e.Node)
		}
	}
	sort.Slice(cand, func(a, b int) bool {
		if d[cand[a]] != d[cand[b]] {
			return d[cand[a]] < d[cand[b]]
		}
		return cand[a] < cand[b]
	})
	T := 1.0 // numerator: 1 + Σ (q_k − q_{k−1}) d(k)
	P := 1.0 // Π (1 − p_ik) over admitted forwarders; q = 1 − P
	x := Inf // current estimate T/(1−P)
	for _, k := range cand {
		if d[k] >= x {
			break // admitting k cannot improve and k is not a valid forwarder
		}
		p := t.Prob(i, k)
		T += float64(p * P * d[k])
		P = float64(P * (1 - p))
		x = T / (1 - P)
	}
	return x
}

// eotxFixedPoint solves definition (5.14) directly by value iteration with
// subset enumeration of the neighbor reception events, assuming independent
// losses. It is exponential in the neighborhood size (≤ maxNbrs neighbors
// per node) and exists purely as an oracle for cross-validating the two
// fast algorithms. It panics if a node's neighborhood exceeds maxNbrs.
func eotxFixedPoint(t *graph.Topology, dst graph.NodeID, maxNbrs int) []float64 {
	n := t.N()
	d := make([]float64, n)
	for i := range d {
		d[i] = Inf
	}
	d[dst] = 0
	type nbr struct {
		id graph.NodeID
		p  float64
	}
	nbrs := make([][]nbr, n)
	for i := 0; i < n; i++ {
		for _, e := range t.OutEdges(graph.NodeID(i)) {
			nbrs[i] = append(nbrs[i], nbr{e.Node, e.P})
		}
		if len(nbrs[i]) > maxNbrs {
			panic("routing: eotxFixedPoint neighborhood too large")
		}
	}
	// Value-iterate: each sweep recomputes d(s) = 1 + Σ_K p_K min_{k∈K} d(k)
	// solved for d(s) (s is always in K). Enumerate subsets of neighbors.
	for sweep := 0; sweep < 4*n+8; sweep++ {
		maxDelta := 0.0
		for s := 0; s < n; s++ {
			if graph.NodeID(s) == dst {
				continue
			}
			ns := nbrs[s]
			m := len(ns)
			// Σ over reception subsets K' (of neighbors) of
			// Pr[K'] · min d over K' — but only when that min is cheaper
			// than s; otherwise s keeps the packet, contributing d(s).
			// Solve x = 1 + Σ_{K'} Pr[K'] · min(mind(K'), x):
			// x·(1 − pKeep) = 1 + contrib, where pKeep sums Pr[K'] with
			// mind(K') ≥ x. Because the candidate minima are the d values
			// themselves, water-fill over distinct thresholds: admit
			// receivers cheaper than x. Here we do it exactly: iterate x.
			x := d[s]
			if math.IsInf(x, 1) {
				x = 1e18 // finite stand-in so comparisons work
			}
			for it := 0; it < 64; it++ {
				contrib := 0.0
				pKeep := 0.0
				for mask := 0; mask < 1<<m; mask++ {
					pr := 1.0
					minD := math.Inf(1)
					for b := 0; b < m; b++ {
						if mask&(1<<b) != 0 {
							pr *= ns[b].p
							if d[ns[b].id] < minD {
								minD = d[ns[b].id]
							}
						} else {
							pr *= 1 - ns[b].p
						}
					}
					if minD < x {
						contrib += float64(pr * minD)
					} else {
						pKeep += pr
					}
				}
				if pKeep >= 1-1e-15 {
					x = 1e18
					break
				}
				nx := (1 + contrib) / (1 - pKeep)
				if math.Abs(nx-x) < 1e-12 {
					x = nx
					break
				}
				x = nx
			}
			old := d[s]
			if x >= 1e17 {
				d[s] = Inf
			} else {
				d[s] = x
			}
			delta := math.Abs(d[s] - old)
			if !math.IsInf(delta, 1) && delta > maxDelta {
				maxDelta = delta
			} else if math.IsInf(old, 1) != math.IsInf(d[s], 1) {
				maxDelta = 1
			}
		}
		if maxDelta < 1e-12 {
			break
		}
	}
	return d
}
