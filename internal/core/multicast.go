package core

import (
	"fmt"
	"sort"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Multicast MORE — the extension Chapter 1 motivates: ExOR's structured
// scheduler is "hard to extend to alternate traffic types, particularly
// multicast", while random coding needs no per-receiver coordination. A
// multicast source codes exactly as a unicast one; the forwarder set is the
// union of the per-destination plans; each destination decodes and ACKs
// batches independently; the source advances to the next batch once every
// destination has ACKed the current one. Forwarders do not purge on a
// single destination's ACK (other destinations may still need the batch) —
// they flush on the source's newer batch, as in §3.2.2.

type multicastState struct {
	dsts     []graph.NodeID
	ackedBy  map[graph.NodeID]bool // destinations that ACKed the current batch
	results  map[graph.NodeID]flow.Result
	expected int
}

// StartMulticastFlow makes this node the source of a reliable multicast
// transfer of file to every destination in dsts. onDone fires when the last
// batch has been ACKed by all destinations. Per-destination results are
// reported by each destination's ExpectFlow as usual.
func (n *Node) StartMulticastFlow(id flow.ID, dsts []graph.NodeID, file flow.File, onDone func(flow.Result)) error {
	if len(dsts) == 0 {
		return fmt.Errorf("core: multicast flow %d has no destinations", id)
	}
	if _, dup := n.sources[id]; dup {
		return fmt.Errorf("core: duplicate flow %d", id)
	}
	// Union the per-destination forwarding plans. A node's credit is the
	// maximum it holds in any plan (conservative: it must be able to serve
	// the most demanding destination); ordering is by the smallest
	// distance to any destination, so "upstream" stays well defined.
	type entry struct {
		credit float64
		dist   float64
	}
	union := map[graph.NodeID]entry{}
	for _, dst := range dsts {
		plan, err := routing.BuildPlan(n.state.Graph(), n.node.ID(), dst, n.cfg.Plan)
		if err != nil {
			return fmt.Errorf("core: multicast flow %d: %w", id, err)
		}
		for _, f := range plan.Forwarders() {
			e, ok := union[f]
			if !ok {
				e = entry{credit: plan.Credit[f], dist: plan.Dist[f]}
			} else {
				if plan.Credit[f] > e.credit {
					e.credit = plan.Credit[f]
				}
				if plan.Dist[f] < e.dist {
					e.dist = plan.Dist[f]
				}
			}
			union[f] = e
		}
	}
	// Destinations of the multicast never appear as plain forwarders; they
	// get the data anyway and ACK it.
	for _, d := range dsts {
		delete(union, d)
	}
	fwd := make([]FwdEntry, 0, len(union))
	dists := make(map[graph.NodeID]float64, len(union))
	for idNode, e := range union {
		fwd = append(fwd, FwdEntry{Node: idNode, Credit: e.credit})
		dists[idNode] = e.dist
	}
	sortFwdByDist(fwd, dists)

	payloads := padForCoding(file.Payloads())
	batches := splitBatches(payloads, n.cfg.BatchSize)
	if len(batches) == 0 {
		return fmt.Errorf("core: multicast flow %d: empty file", id)
	}
	st := &sourceState{
		id:        id,
		dst:       dsts[0],
		batches:   batches,
		fwd:       NewFwdList(fwd),
		onDone:    onDone,
		txAtStart: n.node.Sim().Counters.Transmissions,
		multicast: &multicastState{
			dsts:     append([]graph.NodeID(nil), dsts...),
			ackedBy:  make(map[graph.NodeID]bool),
			results:  make(map[graph.NodeID]flow.Result),
			expected: len(dsts),
		},
	}
	st.result = flow.Result{
		Src: n.node.ID(), Dst: dsts[0],
		PacketsTotal: len(payloads),
		Start:        n.node.Now(),
	}
	if err := st.codeBatch(n); err != nil {
		return err
	}
	n.sources[id] = st
	n.rrAdd(id)
	n.node.Wake()
	return nil
}

// sortFwdByDist orders forwarder entries closest-to-any-destination first,
// with node IDs breaking ties for determinism.
func sortFwdByDist(fwd []FwdEntry, dist map[graph.NodeID]float64) {
	sort.Slice(fwd, func(i, j int) bool {
		a, b := dist[fwd[i].Node], dist[fwd[j].Node]
		if a != b {
			return a < b
		}
		return fwd[i].Node < fwd[j].Node
	})
}

// splitBatches chunks payloads into batches of at most k packets.
// padForCoding zero-pads a short final payload back to the common packet
// size: random linear coding needs equal-length symbols, so the wire always
// carries full-size packets. The sink verifies (and the file accounts) only
// the real bytes — flow.VerifyPayload ignores the padding.
func padForCoding(payloads [][]byte) [][]byte {
	if len(payloads) == 0 {
		return payloads
	}
	size := len(payloads[0])
	last := payloads[len(payloads)-1]
	if len(last) < size {
		padded := make([]byte, size)
		copy(padded, last)
		payloads[len(payloads)-1] = padded
	}
	return payloads
}

func splitBatches(payloads [][]byte, k int) [][][]byte {
	var batches [][][]byte
	for i := 0; i < len(payloads); i += k {
		end := i + k
		if end > len(payloads) {
			end = len(payloads)
		}
		batches = append(batches, payloads[i:end])
	}
	return batches
}

// multicastAck processes one destination's batch ACK at the source.
func (n *Node) multicastAck(st *sourceState, a *AckMsg) {
	mc := st.multicast
	if st.done || int(a.Batch) != st.curBatch {
		return
	}
	mc.ackedBy[a.Origin] = true
	if len(mc.ackedBy) < mc.expected {
		return
	}
	// Every destination has the batch: advance.
	mc.ackedBy = make(map[graph.NodeID]bool)
	n.advanceBatch(st, a.Batch)
}
