// Package graph models the wireless mesh topology: node positions, per-link
// delivery probabilities, the carrier-sense relation, and generators for the
// topologies the thesis evaluates on (the 20-node testbed of §4.1, the
// motivating diamond of Fig 1-1, and the unbounded-gap topology of Fig 5-1),
// plus large random-geometric meshes for scaling studies.
//
// The network model follows §5.3.1: a broadcast transmission from node i is
// received by node j independently with marginal probability p_ij. The
// topology carries those marginals; the simulator layers interference and
// carrier sense on top.
//
// Links live in one storage: per-node out-edge lists sorted by peer, so
// memory scales with edges and thousand-node meshes never materialize N²
// state — the scaling extension past the §4.1 testbed's 20 nodes. Prob and
// OutEdges read the lists directly; InEdges reads an index derived from
// them on first use and rebuilt after mutation. The seeded
// random-geometric generator (geometric.go) draws positions uniformly and
// maps distance to delivery probability with the same distance-band shape
// the testbed exhibits (§4.1.1's loss-rate spread), optionally degraded
// uniformly (Degrade) to mimic §4.2.2's lossier conditions.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// NodeID identifies a node within a topology. IDs are dense, 0..N-1.
type NodeID int

// Broadcast is the pseudo-destination of broadcast frames.
const Broadcast NodeID = -1

// NodeSet is a set of node IDs, one bit each: 64 bytes for 512 nodes, so a
// membership test on a set many nodes consult in a row stays in L1.
type NodeSet []uint64

// NewNodeSet returns an empty set over nodes 0..n-1.
func NewNodeSet(n int) NodeSet { return make(NodeSet, (n+63)/64) }

// Has reports whether id is in the set. IDs outside 0..n-1 never are.
func (s NodeSet) Has(id NodeID) bool {
	w := uint(id) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(id)&63)) != 0
}

// Add puts id in the set and reports whether it was there already. An ID
// outside 0..n-1 is not recorded.
func (s NodeSet) Add(id NodeID) bool {
	w := uint(id) >> 6
	if w >= uint(len(s)) {
		return false
	}
	bit := uint64(1) << (uint(id) & 63)
	had := s[w]&bit != 0
	s[w] |= bit
	return had
}

// Remove takes id out of the set.
func (s NodeSet) Remove(id NodeID) {
	if w := uint(id) >> 6; w < uint(len(s)) {
		s[w] &^= 1 << (uint(id) & 63)
	}
}

// Position is a point in 3-D space (meters). The testbed spans three floors,
// so Z matters.
type Position struct {
	X, Y, Z float64
}

// Distance returns the Euclidean distance between two positions.
func (p Position) Distance(q Position) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Edge is one directed link in a neighbor list: delivery probability P along
// the direction the list implies (outgoing for OutEdges, incoming for
// InEdges). P is always > 0; absent links simply have no edge.
type Edge struct {
	Node NodeID
	P    float64
}

// Topology is a wireless mesh: node positions plus the marginal delivery
// probabilities at the reference bit-rate. It is the ground truth the
// channel simulator draws from and (when estimation noise is disabled) the
// loss matrix fed to all routing computations, mirroring how the paper feeds
// the same ETX measurements to Srcr, MORE and ExOR (§4.1.2).
type Topology struct {
	Pos []Position

	// out[i] lists node i's out-edges, sorted ascending by Node: Edge.P is
	// the probability a transmission by i is delivered to Edge.Node at the
	// reference rate, with no interference. It is the only link storage.
	out [][]Edge

	// in caches the in-edge lists derived from out: (*in)[j] holds the
	// edges into j, sorted ascending by transmitter. Concurrent readers may
	// race to build it; every build yields identical contents, so whichever
	// lands is correct. Mutators clear it.
	in atomic.Pointer[[][]Edge]

	// severed remembers the delivery probability of each directed link
	// removed by FailLink/Isolate so RestoreLink/Restore can put it back.
	// down marks nodes currently isolated, so restoring one endpoint of a
	// link never resurrects a link into a still-dead node.
	severed map[linkKey]float64
	down    map[NodeID]bool
}

// linkKey identifies one directed link a -> b in the severed-link record.
type linkKey struct{ a, b NodeID }

// New creates an empty topology with n nodes at the origin and zero
// connectivity.
func New(n int) *Topology {
	return &Topology{
		Pos: make([]Position, n),
		out: make([][]Edge, n),
	}
}

// FromRows creates a topology of len(out) nodes at the origin whose out-edge
// lists are out, taken as they are: each row sorted ascending by Node, with
// no self-link and every P in (0, 1] — what Validate checks. The topology
// owns the rows from then on; the caller keeps no reference to them.
func FromRows(out [][]Edge) *Topology {
	return &Topology{Pos: make([]Position, len(out)), out: out}
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Pos) }

// SetLink sets the delivery probability in both directions.
func (t *Topology) SetLink(a, b NodeID, p float64) {
	t.SetDirected(a, b, p)
	t.SetDirected(b, a, p)
}

// SetDirected sets the delivery probability a -> b only; p <= 0 removes the
// link. A node has no link to itself, so a == b is ignored.
func (t *Topology) SetDirected(a, b NodeID, p float64) {
	if a == b {
		return
	}
	row := t.out[a]
	k := sort.Search(len(row), func(i int) bool { return row[i].Node >= b })
	switch {
	case k < len(row) && row[k].Node == b:
		if p > 0 {
			row[k].P = p
		} else {
			t.out[a] = append(row[:k], row[k+1:]...)
		}
	case p > 0:
		row = append(row, Edge{})
		copy(row[k+1:], row[k:])
		row[k] = Edge{Node: b, P: p}
		t.out[a] = row
	}
	t.in.Store(nil)
}

// Prob returns the delivery probability from a to b.
func (t *Topology) Prob(a, b NodeID) float64 {
	if a == b {
		return 1
	}
	row := t.out[a]
	k := sort.Search(len(row), func(i int) bool { return row[i].Node >= b })
	if k < len(row) && row[k].Node == b {
		return row[k].P
	}
	return 0
}

// Loss returns the loss probability ε_ab = 1 - p_ab used throughout
// Chapter 3's credit calculations.
func (t *Topology) Loss(a, b NodeID) float64 { return 1 - t.Prob(a, b) }

// inEdges returns the derived in-edge index, building it on first use.
func (t *Topology) inEdges() [][]Edge {
	if in := t.in.Load(); in != nil {
		return *in
	}
	// Counted first, so every in-list is cut from one backing array with
	// cap == len (an append by a reader copies instead of writing into the
	// next list), then filled in ascending source order so each comes out
	// sorted by Edge.Node.
	count := make([]int, t.N())
	total := 0
	for _, row := range t.out {
		for _, e := range row {
			count[e.Node]++
		}
		total += len(row)
	}
	in := make([][]Edge, t.N())
	edges := make([]Edge, total)
	off := 0
	for j, c := range count {
		in[j] = edges[off : off : off+c]
		off += c
	}
	for i, row := range t.out {
		for _, e := range row {
			in[e.Node] = append(in[e.Node], Edge{Node: NodeID(i), P: e.P})
		}
	}
	t.in.CompareAndSwap(nil, &in)
	return *t.in.Load()
}

// OutEdges returns node i's outgoing links (delivery > 0), sorted ascending
// by neighbor ID. The returned slice is shared — callers must not mutate it.
func (t *Topology) OutEdges(i NodeID) []Edge { return t.out[i] }

// InEdges returns the links into node j — Edge.Node is the transmitter,
// Edge.P the delivery probability toward j — sorted ascending by
// transmitter ID. The returned slice is shared — callers must not mutate it.
func (t *Topology) InEdges(j NodeID) []Edge {
	return t.inEdges()[j]
}

// Edges returns the total number of directed links with delivery > 0.
func (t *Topology) Edges() int {
	total := 0
	for i := 0; i < t.N(); i++ {
		total += len(t.OutEdges(NodeID(i)))
	}
	return total
}

// Degrade scales every link's delivery probability by (1 - drop), modelling
// a uniform extra drop rate layered over the channel (the knob large-scale
// emulation rigs expose). drop outside [0,1) is clamped.
func (t *Topology) Degrade(drop float64) {
	if drop <= 0 {
		return
	}
	if drop > 1 {
		drop = 1
	}
	keep := 1 - drop
	for i := range t.out {
		if keep == 0 {
			t.out[i] = nil
			continue
		}
		for k := range t.out[i] {
			t.out[i][k].P *= keep
		}
	}
	t.in.Store(nil)
}

// sever zeroes the directed link a -> b, remembering its prior delivery
// probability. The first removal wins: severing an already-severed link
// must not overwrite the saved value with zero.
func (t *Topology) sever(a, b NodeID) {
	p := t.Prob(a, b)
	if p <= 0 {
		return
	}
	if t.severed == nil {
		t.severed = make(map[linkKey]float64)
	}
	if _, dup := t.severed[linkKey{a, b}]; !dup {
		t.severed[linkKey{a, b}] = p
	}
	t.SetDirected(a, b, 0)
}

// unsever restores a previously severed a -> b link at its saved delivery
// probability, unless either endpoint is still isolated (the link comes
// back when the last dead endpoint does).
func (t *Topology) unsever(a, b NodeID) {
	p, ok := t.severed[linkKey{a, b}]
	if !ok || t.down[a] || t.down[b] {
		return
	}
	delete(t.severed, linkKey{a, b})
	t.SetDirected(a, b, p)
}

// FailLink removes the link between a and b in both directions, remembering
// the delivery probabilities so RestoreLink can undo it. Failing an absent
// or already-failed link is a no-op.
func (t *Topology) FailLink(a, b NodeID) {
	t.sever(a, b)
	t.sever(b, a)
}

// RestoreLink undoes FailLink: the link between a and b comes back at its
// pre-failure delivery probabilities (any Degrade applied while the link
// was down does not retroactively apply to it). Restoring a link that was
// never failed is a no-op.
func (t *Topology) RestoreLink(a, b NodeID) {
	t.unsever(a, b)
	t.unsever(b, a)
}

// Isolate removes every link into and out of node id, modelling a node
// failure: the ground truth after a crash is that the radio is gone.
// Callers running a live simulation should pair this with
// sim.Simulator.FailNode, which silences the node itself (the simulator
// reads link probabilities live, so deliveries stop with the links).
// Restore undoes it.
func (t *Topology) Isolate(id NodeID) {
	// Collect both edge sets before mutating: OutEdges is the live row the
	// severing edits, InEdges the derived index it invalidates.
	var out, in []NodeID
	for _, e := range t.OutEdges(id) {
		out = append(out, e.Node)
	}
	for _, e := range t.InEdges(id) {
		in = append(in, e.Node)
	}
	for _, j := range out {
		t.sever(id, j)
	}
	for _, j := range in {
		t.sever(j, id)
	}
	if t.down == nil {
		t.down = make(map[NodeID]bool)
	}
	t.down[id] = true
}

// Restore undoes Isolate: node id's links come back at their pre-failure
// delivery probabilities. Links whose other endpoint is itself still
// isolated stay down until that endpoint is restored too. Callers running
// a live simulation should pair this with sim.Simulator.RecoverNode, which
// revives the silenced radio. Restoring a node that was never isolated is
// a no-op.
func (t *Topology) Restore(id NodeID) {
	if !t.down[id] {
		return
	}
	delete(t.down, id)
	for k := range t.severed {
		if k.a == id || k.b == id {
			t.unsever(k.a, k.b)
		}
	}
}

// Clone returns a deep copy, including any pending failure state (severed
// links, down nodes), so a clone of a mid-churn topology restores exactly
// like the original would.
func (t *Topology) Clone() *Topology {
	c := New(t.N())
	copy(c.Pos, t.Pos)
	for i := range t.out {
		c.out[i] = append([]Edge(nil), t.out[i]...)
	}
	if t.severed != nil {
		c.severed = make(map[linkKey]float64, len(t.severed))
		for k, v := range t.severed {
			c.severed[k] = v
		}
	}
	if t.down != nil {
		c.down = make(map[NodeID]bool, len(t.down))
		for k, v := range t.down {
			c.down[k] = v
		}
	}
	return c
}

// Validate checks the link representation is well formed.
func (t *Topology) Validate() error {
	n := t.N()
	if len(t.out) != n {
		return fmt.Errorf("graph: %d neighbor lists for %d nodes", len(t.out), n)
	}
	for i, row := range t.out {
		last := NodeID(-1)
		for _, e := range row {
			if e.Node < 0 || int(e.Node) >= n || e.Node == NodeID(i) {
				return fmt.Errorf("graph: edge %d->%d out of range", i, e.Node)
			}
			if e.Node <= last {
				return fmt.Errorf("graph: node %d neighbor list unsorted at %d", i, e.Node)
			}
			if e.P <= 0 || e.P > 1 {
				return fmt.Errorf("graph: edge %d->%d prob %v out of range", i, e.Node, e.P)
			}
			last = e.Node
		}
	}
	return nil
}

// Stats summarizes link quality over links with nonzero delivery.
type Stats struct {
	Links       int
	MeanLoss    float64
	MinLoss     float64
	MaxLoss     float64
	MeanDegree  float64
	Isolated    int
	Asymmetric  int // links where |p_ij - p_ji| > 0.2
	ZeroInbound int // nodes no other node can reach
}

// LinkStats computes summary statistics over links with delivery above the
// threshold (both directions counted once).
func (t *Topology) LinkStats(threshold float64) Stats {
	s := Stats{MinLoss: 1}
	n := t.N()
	deg := make([]int, n)
	inbound := make([]int, n)
	for i := 0; i < n; i++ {
		for _, e := range t.OutEdges(NodeID(i)) {
			j := int(e.Node)
			p := e.P
			if p <= threshold {
				continue
			}
			inbound[j]++
			if j > i {
				s.Links++
				loss := 1 - p
				s.MeanLoss += loss
				if loss < s.MinLoss {
					s.MinLoss = loss
				}
				if loss > s.MaxLoss {
					s.MaxLoss = loss
				}
				deg[i]++
				deg[j]++
				if math.Abs(p-t.Prob(e.Node, NodeID(i))) > 0.2 {
					s.Asymmetric++
				}
			}
		}
	}
	if s.Links > 0 {
		s.MeanLoss /= float64(s.Links)
	} else {
		s.MinLoss = 0
	}
	for i := 0; i < n; i++ {
		s.MeanDegree += float64(deg[i])
		if deg[i] == 0 {
			s.Isolated++
		}
		if inbound[i] == 0 {
			s.ZeroInbound++
		}
	}
	if n > 0 {
		s.MeanDegree /= float64(n)
	}
	return s
}

// HopCount returns the minimum number of hops from src to dst using only
// links with delivery above threshold, or -1 if unreachable.
func (t *Topology) HopCount(src, dst NodeID, threshold float64) int {
	if src == dst {
		return 0
	}
	n := t.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range t.OutEdges(u) {
			if e.P > threshold && dist[e.Node] < 0 {
				dist[e.Node] = dist[u] + 1
				if e.Node == dst {
					return dist[e.Node]
				}
				queue = append(queue, e.Node)
			}
		}
	}
	return dist[dst]
}

// --- Reference channel model -------------------------------------------------

// DeliveryFromDistance maps distance to delivery probability at the
// reference 802.11b rate (5.5 Mb/s). It is a smooth logistic fall-off: near
// certain within ~10 m, roughly 50 % at midRange, and negligible past
// ~2×midRange. Real indoor propagation is messier; the testbed generator
// adds per-link log-normal shadowing noise on top.
func DeliveryFromDistance(d, midRange float64) float64 {
	if midRange <= 0 {
		return 0
	}
	// Logistic in distance with slope tuned so that the 10%..90% band spans
	// roughly half of midRange, giving a realistic "gray zone".
	x := (d - midRange) / (0.22 * midRange)
	p := 1 / (1 + math.Exp(x))
	if p < 0.005 {
		return 0
	}
	return p
}

// DeliveryCutoff returns the distance beyond which DeliveryFromDistance is
// exactly zero for the given midRange — the radius spatial candidate search
// can safely stop at. (The logistic floors at p < 0.005, reached at
// x = ln(1/0.005 - 1) ≈ 5.29 slope units.)
func DeliveryCutoff(midRange float64) float64 {
	return midRange * (1 + 0.22*math.Log(1/0.005-1))
}

// RateScale scales a delivery probability measured at the 5.5 Mb/s reference
// rate to another 802.11b rate. Lower rates use more robust modulation and
// travel farther; 11 Mb/s (CCK-11) is the most fragile. The scaling keeps
// good links good and mostly affects marginal ones, matching the §4.4
// observation that poor links remain poor at every bit-rate.
func RateScale(pRef float64, rateMbps float64) float64 {
	if pRef <= 0 {
		return 0
	}
	// Express as an effective per-bit success and re-exponentiate with a
	// rate-dependent exponent: robust rates shrink the exponent (<1),
	// fragile rates grow it (>1).
	var exp float64
	switch {
	case rateMbps <= 1:
		exp = 0.25
	case rateMbps <= 2:
		exp = 0.5
	case rateMbps <= 5.5:
		exp = 1.0
	default: // 11 Mb/s
		exp = 1.9
	}
	p := math.Pow(pRef, exp)
	if p < 0.005 {
		return 0
	}
	return p
}
