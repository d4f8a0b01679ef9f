package linkstate

import (
	"math"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
)

// View is one node's learned routing state: the flow.RoutingState built
// from that node's LSA database instead of the global oracle. It is the
// "each node can then build the network graph annotated with the link loss
// probabilities" step of §3.2.1(b), made consumable by MORE's plan
// construction, ExOR's priority lists, and Srcr's path selection.
//
// Rebuilding the graph and its route tables on every received LSA would be
// wasteful (floods arrive in bursts) and would churn routes mid-batch, so
// the view recomputes lazily and at most once per MinRecompute of simulated
// time: a query first checks whether the agent's database moved since the
// last build and whether the recompute holdoff has elapsed, and only then
// pays for a rebuild. Version exposes the build generation — protocol
// sources compare it between batches to decide whether to refresh their
// forwarder plans (periodic recomputation as estimates drift).
type View struct {
	agent *Agent
	opt   routing.ETXOptions

	// MinRecompute rate-limits topology/table rebuilds (simulated time).
	minRecompute sim.Time

	topo    *graph.Topology
	tables  map[graph.NodeID]*routing.ETXTable
	version uint64 // agent version the cache was built from
	builtAt sim.Time
	builds  int64 // how many times refresh recomputed the topology
}

// NewView wraps an agent in a RoutingState. opt configures ETX path
// selection over the learned graph; minRecompute rate-limits rebuilds (zero
// recomputes on every database change).
func NewView(a *Agent, opt routing.ETXOptions, minRecompute sim.Time) *View {
	return &View{agent: a, opt: opt, minRecompute: minRecompute}
}

// refresh rebuilds the cached topology and drops stale route tables when
// the agent's LSA database has changed and the holdoff has elapsed.
func (v *View) refresh() {
	if v.topo != nil && v.agent.version == v.version {
		return
	}
	now := sim.Time(0)
	if n := v.agent.Node(); n != nil {
		now = n.Now()
	}
	if v.topo != nil && now-v.builtAt < v.minRecompute {
		return // holdoff: serve the previous build
	}
	v.topo = v.agent.Topology()
	v.tables = make(map[graph.NodeID]*routing.ETXTable)
	v.version = v.agent.version
	v.builtAt = now
	v.builds++
}

// Graph implements flow.RoutingState.
func (v *View) Graph() *graph.Topology {
	v.refresh()
	return v.topo
}

// Version implements flow.RoutingState: the build generation, which only
// advances when a query actually recomputed the view.
func (v *View) Version() uint64 {
	v.refresh()
	return v.version
}

func (v *View) table(dst graph.NodeID) *routing.ETXTable {
	v.refresh()
	tab, ok := v.tables[dst]
	if !ok {
		tab = routing.ETXToDestination(v.topo, dst, v.opt)
		v.tables[dst] = tab
	}
	return tab
}

// NextHop implements flow.RoutingState over the learned graph.
func (v *View) NextHop(cur, dst graph.NodeID) graph.NodeID {
	if cur == dst {
		return -1
	}
	return v.table(dst).Next[cur]
}

// Path implements flow.RoutingState over the learned graph.
func (v *View) Path(src, dst graph.NodeID) []graph.NodeID {
	return v.table(dst).Path(src)
}

// etxError compares this view's learned ETX distances toward dst against
// the distances an oracle computes over the ground-truth topology: the mean
// and max absolute relative error over nodes the oracle can reach. Nodes
// the learned view believes unreachable while the oracle does not (or vice
// versa) count as disagreements.
func (v *View) etxError(truth *graph.Topology, dst graph.NodeID) (meanRel, maxRel float64, disagree int) {
	want := routing.ETXToDestination(truth, dst, v.opt)
	got := v.table(dst)
	count := 0
	for i := range want.Dist {
		if graph.NodeID(i) == dst {
			continue
		}
		wInf, gInf := math.IsInf(want.Dist[i], 1), math.IsInf(got.Dist[i], 1)
		if wInf || gInf {
			if wInf != gInf {
				disagree++
			}
			continue
		}
		rel := math.Abs(got.Dist[i]-want.Dist[i]) / want.Dist[i]
		meanRel += rel
		if rel > maxRel {
			maxRel = rel
		}
		count++
	}
	if count > 0 {
		meanRel /= float64(count)
	}
	return meanRel, maxRel, disagree
}
