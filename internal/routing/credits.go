package routing

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// OrderMetric selects which distance metric orders the forwarder list.
type OrderMetric int

const (
	// OrderETX orders forwarders by ETX distance to the destination, as
	// deployed MORE and ExOR do (§3.2.1, §5.7).
	OrderETX OrderMetric = iota
	// OrderEOTX orders forwarders by the optimal EOTX metric of Chapter 5.
	OrderEOTX
)

func (m OrderMetric) String() string {
	switch m {
	case OrderETX:
		return "ETX"
	case OrderEOTX:
		return "EOTX"
	default:
		return fmt.Sprintf("OrderMetric(%d)", int(m))
	}
}

// PlanOptions configures forwarding-plan construction.
type PlanOptions struct {
	Metric OrderMetric
	// PruneFraction prunes forwarders expected to perform less than this
	// fraction of all transmissions (§3.2.1 uses 0.1). Zero disables
	// pruning.
	PruneFraction float64
	// MaxForwarders bounds the forwarder list (the implementation bounds
	// it to 10, §4.6(c)). Zero means unbounded. Lowest-contribution
	// forwarders are dropped first.
	MaxForwarders int
}

// DefaultPlanOptions matches the deployed MORE configuration.
func DefaultPlanOptions() PlanOptions {
	return PlanOptions{
		Metric:        OrderETX,
		PruneFraction: 0.1,
		MaxForwarders: 10,
	}
}

// Plan is the per-flow forwarding plan the source computes and stamps into
// every packet header: the ordered forwarder list with per-node TX credits,
// plus the expected transmission counts behind them.
type Plan struct {
	Src, Dst graph.NodeID

	// Order lists the participating nodes in ascending distance to the
	// destination: Order[0] == Dst, Order[len-1] == Src. Forwarders are
	// Order[1:len-1].
	Order []graph.NodeID

	// Dist[i] is the ordering metric's distance of node i (indexed by
	// NodeID over the whole topology).
	Dist []float64

	// Z maps each participating node to z_i, the expected number of
	// transmissions it makes per packet delivered end to end (Eq. 3.2).
	Z map[graph.NodeID]float64

	// Credit maps each forwarder to its TX credit (Eq. 3.3): transmissions
	// per reception from upstream. The source is absent (it is backlogged
	// by construction); the destination's credit is 0.
	Credit map[graph.NodeID]float64

	// TotalCost is Σ z_i, the expected network-wide transmissions per
	// packet. Under EOTX ordering it equals the source's EOTX (§5.6.2).
	TotalCost float64
}

// Forwarders returns the forwarder list ordered by proximity to the
// destination (closest first), excluding source and destination.
func (p *Plan) Forwarders() []graph.NodeID {
	if len(p.Order) <= 2 {
		return nil
	}
	fw := make([]graph.NodeID, len(p.Order)-2)
	copy(fw, p.Order[1:len(p.Order)-1])
	return fw
}

// Participants returns every node in the plan, destination first.
func (p *Plan) Participants() []graph.NodeID {
	out := make([]graph.NodeID, len(p.Order))
	copy(out, p.Order)
	return out
}

// BuildPlan constructs the forwarding plan for a flow: it computes the
// ordering metric to dst, selects candidate forwarders strictly closer to
// the destination than the source, computes z_i with Algorithm 1, prunes
// low-contribution forwarders, recomputes z on the final set, and derives
// TX credits with Eq. (3.3). Returns an error if dst is unreachable. The
// ETX order uses the routing layer's link costs, DefaultETXOptions.
func BuildPlan(t *graph.Topology, src, dst graph.NodeID, opt PlanOptions) (*Plan, error) {
	return buildPlan(t, src, dst, opt, DefaultETXOptions())
}

// buildPlan is BuildPlan with the ETX order's link costs given: CostGap
// compares the orders under the caller's costs.
func buildPlan(t *graph.Topology, src, dst graph.NodeID, opt PlanOptions, etx ETXOptions) (*Plan, error) {
	if src == dst {
		return nil, fmt.Errorf("routing: src == dst (%d)", src)
	}
	var dist []float64
	switch opt.Metric {
	case OrderETX:
		dist = ETXToDestination(t, dst, etx).Dist
	case OrderEOTX:
		dist = EOTX(t, dst, EOTXOptions{})
	default:
		return nil, fmt.Errorf("routing: unknown metric %v", opt.Metric)
	}
	if math.IsInf(dist[src], 1) {
		return nil, fmt.Errorf("routing: destination %d unreachable from %d", dst, src)
	}

	// Candidate set: nodes strictly closer than the source, plus src.
	order := []graph.NodeID{dst}
	for i := 0; i < t.N(); i++ {
		id := graph.NodeID(i)
		if id == src || id == dst {
			continue
		}
		if dist[i] < dist[src] && !math.IsInf(dist[i], 1) {
			order = append(order, id)
		}
	}
	order = append(order, src)
	sortByDist(order, dist)

	// Drop forwarders that cannot usefully contribute (no delivery to any
	// closer node, or zero load); removing one node can render another
	// useless, so iterate to a fixed point. The same filtering must re-run
	// after pruning and capping, which can themselves strand a forwarder
	// whose only onward connectivity was pruned away.
	settle := func(ord []graph.NodeID) ([]graph.NodeID, []float64) {
		zs := transmissionCounts(t, ord)
		for {
			filtered := filterUseless(ord, zs, src, dst)
			if len(filtered) == len(ord) {
				return ord, zs
			}
			ord = filtered
			zs = transmissionCounts(t, ord)
		}
	}
	order, z := settle(order)
	baseOrder, baseZ := order, z

	if opt.PruneFraction > 0 {
		order = pruneLowContribution(order, z, src, dst, opt.PruneFraction)
		order, z = settle(order)
	}
	if opt.MaxForwarders > 0 && len(order) > opt.MaxForwarders+2 {
		order = capForwarders(order, z, src, dst, opt.MaxForwarders)
		order, z = settle(order)
	}
	// Pruning must never disconnect the source from the destination; if it
	// did (the source's z went non-finite), fall back to the unpruned set.
	if srcZ := z[len(z)-1]; math.IsInf(srcZ, 1) || math.IsNaN(srcZ) || srcZ <= 0 {
		order, z = baseOrder, baseZ
	}
	for _, v := range z {
		if math.IsInf(v, 1) || math.IsNaN(v) {
			return nil, fmt.Errorf("routing: non-finite transmission count for %d->%d", src, dst)
		}
	}

	plan := &Plan{
		Src:    src,
		Dst:    dst,
		Order:  order,
		Dist:   dist,
		Z:      make(map[graph.NodeID]float64, len(order)),
		Credit: make(map[graph.NodeID]float64, len(order)),
	}
	for idx, id := range order {
		plan.Z[id] = z[idx]
		plan.TotalCost += z[idx]
	}
	// Eq. (3.3): TX_credit_i = z_i / Σ_{j>i} z_j (1 − ε_ji). Each node's
	// out-edges add its term to the sums of the nodes before it in order.
	// Transmitters run in ascending position, so every sum adds its terms
	// in ascending j, and a pair with no link adds nothing, as its +0 term
	// would: the credits are those of a walk over every pair.
	pos := positions(t.N(), order)
	expectedRx := make([]float64, len(order))
	for jdx := 1; jdx < len(order); jdx++ {
		for _, e := range t.OutEdges(order[jdx]) {
			if idx := int(pos[e.Node]); idx >= 0 && idx < jdx {
				expectedRx[idx] += float64(z[jdx] * e.P)
			}
		}
	}
	for idx, id := range order {
		if id == src {
			continue
		}
		if expectedRx[idx] > 0 {
			plan.Credit[id] = z[idx] / expectedRx[idx]
		} else {
			plan.Credit[id] = 0
		}
	}
	return plan, nil
}

// sortByDist sorts ids ascending by dist, breaking ties by id for
// determinism (the thesis assumes a strict order w.l.o.g., §5.3.3).
func sortByDist(ids []graph.NodeID, dist []float64) {
	sort.Slice(ids, func(a, b int) bool {
		da, db := dist[ids[a]], dist[ids[b]]
		if da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
}

// transmissionCounts is Algorithm 1: given nodes ordered ascending by
// distance (order[0] = dst, order[n-1] = src), it returns z aligned with
// order. z[0] = 0 (the destination never forwards); the source's entry is
// its own expected transmissions with L_src = 1.
func transmissionCounts(t *graph.Topology, order []graph.NodeID) []float64 {
	n := len(order)
	L := make([]float64, n)
	z := make([]float64, n)
	if n < 2 {
		return z
	}
	// Each forwarder's losses to the nodes closer than it are read from one
	// dense row, scattered from its out-edges: eps[k] = ε(order[i],
	// order[k]) = 1 − p, or 1 with no link.
	pos := positions(t.N(), order)
	eps := make([]float64, n)
	L[n-1] = 1 // the source generates the packet
	for i := n - 1; i >= 1; i-- {
		row := eps[:i]
		for k := range row {
			row[k] = 1
		}
		for _, e := range t.OutEdges(order[i]) {
			if k := int(pos[e.Node]); k >= 0 && k < i {
				row[k] = 1 - e.P
			}
		}
		// Probability that at least one node closer than order[i] hears
		// one of its transmissions.
		pAny := 1.0
		for _, l := range row {
			pAny *= l
		}
		pAny = 1 - pAny
		if pAny <= 0 {
			// No path onward from this node; it would transmit forever.
			// Mark infinite so the caller filters it out.
			if L[i] > 0 {
				z[i] = Inf
			}
			continue
		}
		z[i] = L[i] / pAny
		if math.IsInf(z[i], 1) {
			continue
		}
		// Accumulate order[i]'s contribution to the load of each closer
		// node j: z_i · Π_{k<j} ε_ik · (1 − ε_ij), incrementally.
		P := 1.0
		for j := 1; j < i; j++ {
			P *= row[j-1] // P = Π_{k<j} ε_ik
			L[j] += float64(z[i] * P * (1 - row[j]))
		}
	}
	return z
}

// positions returns, for each of n nodes, its index in order, or -1.
func positions(n int, order []graph.NodeID) []int32 {
	pos := make([]int32, n)
	for v := range pos {
		pos[v] = -1
	}
	for idx, id := range order {
		pos[id] = int32(idx)
	}
	return pos
}

// filterUseless removes forwarders whose z is infinite (no onward
// connectivity) or zero (no load reaches them), keeping src and dst.
func filterUseless(order []graph.NodeID, z []float64, src, dst graph.NodeID) []graph.NodeID {
	out := order[:0:0]
	for idx, id := range order {
		if id == src || id == dst {
			out = append(out, id)
			continue
		}
		if math.IsInf(z[idx], 1) || math.IsNaN(z[idx]) || z[idx] <= 0 {
			continue
		}
		out = append(out, id)
	}
	return out
}

// pruneLowContribution drops forwarders with z_i < frac · Σ_j z_j (§3.2.1).
func pruneLowContribution(order []graph.NodeID, z []float64, src, dst graph.NodeID, frac float64) []graph.NodeID {
	var total float64
	for _, v := range z {
		if !math.IsInf(v, 1) {
			total += v
		}
	}
	cut := frac * total
	out := order[:0:0]
	for idx, id := range order {
		if id == src || id == dst || z[idx] >= cut {
			out = append(out, id)
		}
	}
	return out
}

// capForwarders keeps the maxF highest-contribution forwarders.
func capForwarders(order []graph.NodeID, z []float64, src, dst graph.NodeID, maxF int) []graph.NodeID {
	type entry struct {
		id  graph.NodeID
		idx int
		z   float64
	}
	var fw []entry
	for idx, id := range order {
		if id != src && id != dst {
			fw = append(fw, entry{id, idx, z[idx]})
		}
	}
	sort.Slice(fw, func(a, b int) bool {
		if fw[a].z != fw[b].z {
			return fw[a].z > fw[b].z
		}
		return fw[a].id < fw[b].id
	})
	if len(fw) > maxF {
		fw = fw[:maxF]
	}
	keep := make(map[graph.NodeID]bool, len(fw)+2)
	keep[src], keep[dst] = true, true
	for _, e := range fw {
		keep[e.id] = true
	}
	out := order[:0:0]
	for _, id := range order {
		if keep[id] {
			out = append(out, id)
		}
	}
	return out
}

// loadDistribution is Algorithm 6: given the EOTX cost order, it retrieves
// the optimal per-node transmission counts z and the per-edge information
// flow x by distributing unit load from the source downhill. It returns z
// indexed by position in order and the flow matrix x[i][j] (positions in
// order), where x[i][j] > 0 only for j < i.
func loadDistribution(t *graph.Topology, order []graph.NodeID) (z []float64, x [][]float64) {
	n := len(order)
	z = make([]float64, n)
	x = make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, n)
	}
	if n < 2 {
		return z, x
	}
	L := make([]float64, n)
	L[n-1] = 1
	for i := n - 1; i >= 1; i-- {
		if L[i] == 0 {
			continue
		}
		// q_{i,j} = 1 − Π_{m≤j} (1 − p_{i,order[m]}) over the j+1 cheapest.
		Pnone := 1.0
		for m := 0; m < i; m++ {
			Pnone *= t.Loss(order[i], order[m])
		}
		q := 1 - Pnone
		if q <= 0 {
			z[i] = Inf
			continue
		}
		z[i] = L[i] / q
		P := 1.0
		prevQ := 0.0
		for j := 0; j < i; j++ {
			P = float64(P * t.Loss(order[i], order[j]))
			qj := 1 - P
			x[i][j] = (qj - prevQ) * z[i]
			L[j] += x[i][j]
			prevQ = qj
		}
	}
	return z, x
}

// totalCost sums finite z values.
func totalCost(z []float64) float64 {
	var s float64
	for _, v := range z {
		if !math.IsInf(v, 1) && !math.IsNaN(v) {
			s += v
		}
	}
	return s
}

// CostGap computes §5.7's gap for one source-destination pair: the ratio of
// the total expected transmissions Σ z_i when Algorithm 1 runs under the
// ETX order to the total under the EOTX order. A gap of 1 means the orders
// agree in cost; larger means EOTX ordering would save transmissions.
// Pruning is disabled for the comparison, as in the thesis' analysis; etxOpt
// sets the ETX order's link costs.
func CostGap(t *graph.Topology, src, dst graph.NodeID, etxOpt ETXOptions) (gap float64, err error) {
	etxPlan, err := buildPlan(t, src, dst, PlanOptions{Metric: OrderETX}, etxOpt)
	if err != nil {
		return 0, err
	}
	eotxPlan, err := buildPlan(t, src, dst, PlanOptions{Metric: OrderEOTX}, etxOpt)
	if err != nil {
		return 0, err
	}
	if eotxPlan.TotalCost <= 0 {
		return 0, fmt.Errorf("routing: degenerate EOTX cost for %d->%d", src, dst)
	}
	return etxPlan.TotalCost / eotxPlan.TotalCost, nil
}
