// Package routing implements the routing metrics and transmission-count
// algorithms of the thesis: the ETX path metric (De Couto et al.) used by
// Srcr and for MORE/ExOR forwarder ordering, the EOTX opportunistic metric
// of Chapter 5 with all three computation algorithms, the per-node expected
// transmission counts z_i (Algorithm 1), the TX-credit rule (Eq. 3.3), the
// forwarder pruning rule (§3.2.1), and the ETX-vs-EOTX cost gap analysis
// (§5.7).
//
// Conventions: all functions take the topology's delivery-probability
// matrix; loss ε_ij = 1 - p_ij. Links with delivery at or below the usable
// threshold are ignored for path selection but still carry opportunistic
// receptions in the simulator.
package routing

import (
	"math"

	"repro/internal/graph"
)

// Inf is the metric value for unreachable nodes.
var Inf = math.Inf(1)

// ETXOptions configures link ETX computation.
type ETXOptions struct {
	// Threshold is the minimum delivery probability of a usable link.
	Threshold float64
	// AckAware, when true, uses the bidirectional ETX of De Couto et al.:
	// 1/(p_fwd * p_rev), accounting for lost 802.11 ACKs (§2.1.1). When
	// false the link cost is 1/p_fwd, the form used in the broadcast-based
	// credit calculations of Chapter 3 and 5.
	AckAware bool
}

// DefaultETXOptions matches how the experiments configure routing: usable
// links above graph.RouteThreshold, ACK-aware costs for Srcr path selection.
func DefaultETXOptions() ETXOptions {
	return ETXOptions{Threshold: graph.RouteThreshold, AckAware: true}
}

// LinkETX returns the expected number of transmissions to get a packet
// across link i->j (with MAC retransmissions), or Inf if the link is not
// usable.
func LinkETX(t *graph.Topology, i, j graph.NodeID, opt ETXOptions) float64 {
	return linkETXFwd(t, i, j, t.Prob(i, j), opt)
}

// ETXTable holds, for a fixed destination, each node's ETX distance to it
// and the next hop along the best path. It is the "closer to destination"
// order that MORE and ExOR use (Table 3.1).
type ETXTable struct {
	Dst graph.NodeID
	// Dist[i] is node i's ETX distance to Dst (0 for Dst itself, Inf if
	// unreachable).
	Dist []float64
	// Next[i] is the next hop from i towards Dst along the best path, or
	// -1 when i == Dst or i is unreachable.
	Next []graph.NodeID
}

// ETXToDestination runs Dijkstra over link ETX costs toward dst, returning
// every node's distance and next hop. Costs are additive per §2.1.1: the
// ETX of a path is the sum of the ETX of each hop. Relaxation iterates the
// settled node's in-edges, so the cost is O(E log N) on sparse topologies
// rather than O(N²).
func ETXToDestination(t *graph.Topology, dst graph.NodeID, opt ETXOptions) *ETXTable {
	n := t.N()
	tab := &ETXTable{
		Dst:  dst,
		Dist: make([]float64, n),
		Next: make([]graph.NodeID, n),
	}
	for i := range tab.Dist {
		tab.Dist[i] = Inf
		tab.Next[i] = -1
	}
	tab.Dist[dst] = 0
	pq := distHeap{{node: dst, dist: 0}}
	done := make([]bool, n)
	for len(pq) > 0 {
		e := pq.pop()
		u := e.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, in := range t.InEdges(u) {
			vid := in.Node
			if done[vid] {
				continue
			}
			// Relax the v -> u link: cost of sending from v toward dst via u.
			c := linkETXFwd(t, vid, u, in.P, opt)
			if math.IsInf(c, 1) {
				continue
			}
			if d := tab.Dist[u] + c; d < tab.Dist[vid] {
				tab.Dist[vid] = d
				tab.Next[vid] = u
				pq.push(distEntry{node: vid, dist: d})
			}
		}
	}
	return tab
}

// linkETXFwd is LinkETX with the forward delivery probability already in
// hand (the in-edge iteration of ETXToDestination supplies it).
func linkETXFwd(t *graph.Topology, i, j graph.NodeID, pf float64, opt ETXOptions) float64 {
	if pf <= opt.Threshold {
		return Inf
	}
	if !opt.AckAware {
		return 1 / pf
	}
	pr := t.Prob(j, i)
	if pr <= opt.Threshold {
		return Inf
	}
	return 1 / (pf * pr)
}

// Path returns the best path from src to dst (inclusive of both ends), or
// nil if unreachable.
func (tab *ETXTable) Path(src graph.NodeID) []graph.NodeID {
	if math.IsInf(tab.Dist[src], 1) {
		return nil
	}
	path := []graph.NodeID{src}
	for at := src; at != tab.Dst; {
		at = tab.Next[at]
		if at < 0 {
			return nil
		}
		path = append(path, at)
		if len(path) > len(tab.Dist)+1 {
			return nil // defensive: broken table
		}
	}
	return path
}

// Closer reports whether node a is strictly closer to the destination than
// node b in the ETX metric (Table 3.1's "closer to destination").
func (tab *ETXTable) Closer(a, b graph.NodeID) bool {
	return tab.Dist[a] < tab.Dist[b]
}

type distEntry struct {
	node graph.NodeID
	dist float64
}

// distHeap is the Dijkstra frontier: a binary min-heap on dist whose push
// and pop sift exactly as container/heap's Push and Pop do, so entries of
// equal distance leave in the same order (the digests depend on it), without
// boxing every entry in an interface.
type distHeap []distEntry

func (h *distHeap) push(e distEntry) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *distHeap) pop() distEntry {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].dist < q[j].dist {
			j = j2
		}
		if !(q[j].dist < q[i].dist) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
