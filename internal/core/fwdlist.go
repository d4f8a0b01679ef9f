package core

import (
	"fmt"

	"repro/internal/graph"
)

// FwdEntry is one forwarder-list entry.
type FwdEntry struct {
	Node   graph.NodeID
	Credit float64
}

// FwdList is a flow's ordered forwarder list — closest to the destination
// first, so a later index is farther upstream — as the source stamps it into
// every data packet (§3.3.1). The source builds it once per plan and every
// packet and relay of the flow shares it by reference, so the questions each
// reception asks of it ("am I listed", "is the sender upstream of me", "is
// this granter downstream") are answered from a position table built with
// the list instead of by scanning it. Lists are immutable once built.
type FwdList struct {
	Entries []FwdEntry
	// pos[node] is the node's index in Entries plus one, 0 for a node the
	// list does not name; it spans IDs up to the highest one listed. Dense
	// rather than a map: at the testbed's 4-entry lists a map lookup costs
	// more than the scan it replaces, an array load does not.
	pos []int32
	sig uint64
}

// NewFwdList indexes entries (which it keeps, not copies). A node listed
// twice would make "the node's position" ambiguous; no plan produces one
// (Plan.Order is a permutation), so a duplicate is a bug and panics.
func NewFwdList(entries []FwdEntry) *FwdList {
	top := graph.NodeID(-1)
	for _, e := range entries {
		if e.Node < 0 {
			panic(fmt.Sprintf("core: forwarder list names node %d", e.Node))
		}
		top = max(top, e.Node)
	}
	l := &FwdList{Entries: entries, pos: make([]int32, top+1), sig: 14695981039346656037}
	for i, e := range entries {
		if l.pos[e.Node] != 0 {
			panic(fmt.Sprintf("core: node %d listed twice in a forwarder list", e.Node))
		}
		l.pos[e.Node] = int32(i + 1)
		l.sig ^= uint64(e.Node)
		l.sig *= 1099511628211
	}
	return l
}

// Index returns id's position in the list, or -1 when the list does not
// name it (any ID, graph.Broadcast included).
func (l *FwdList) Index(id graph.NodeID) int {
	if uint(id) < uint(len(l.pos)) {
		return int(l.pos[id]) - 1
	}
	return -1
}

// Sig fingerprints the ordering (FNV-1a over the node IDs, order-sensitive):
// two lists of one flow with different signatures rank some node differently.
func (l *FwdList) Sig() uint64 { return l.sig }
