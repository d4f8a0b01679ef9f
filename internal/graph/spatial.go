package graph

import (
	"math"
	"slices"
)

// SpatialIndex is a uniform grid over node positions, answering "which
// nodes lie within radius r of here" in time proportional to the local
// population instead of N. The simulator uses it for carrier-sense
// neighborhoods, the generators for candidate-link search (Pairs).
//
// The grid is dense over the positions' bounding box and stored compressed:
// cell c holds ids[start[c]:start[c+1]], in ascending ID order, with cells
// numbered x fastest, then y, then z. A row of cells along x is therefore
// one contiguous run of IDs, and a query reads the rows its box crosses
// with no lookup per cell.
type SpatialIndex struct {
	pos        []Position
	cell       float64
	origin     Position // the bounding box's low corner
	nx, ny, nz int
	start      []int32
	ids        []NodeID
}

// NewSpatialIndex buckets the positions, which must be finite, into cells of
// the given width. A non-positive cell width falls back to 1. A box that
// would need more than about four cells per node is covered by wider cells
// instead: the width bounds the work, never the answers.
func NewSpatialIndex(pos []Position, cell float64) *SpatialIndex {
	if cell <= 0 {
		cell = 1
	}
	x := &SpatialIndex{pos: pos, cell: cell}
	var hi Position
	if len(pos) > 0 {
		x.origin, hi = pos[0], pos[0]
	}
	for _, p := range pos {
		x.origin = Position{min(x.origin.X, p.X), min(x.origin.Y, p.Y), min(x.origin.Z, p.Z)}
		hi = Position{max(hi.X, p.X), max(hi.Y, p.Y), max(hi.Z, p.Z)}
	}
	cells := func() float64 {
		return (math.Floor((hi.X-x.origin.X)/x.cell) + 1) *
			(math.Floor((hi.Y-x.origin.Y)/x.cell) + 1) *
			(math.Floor((hi.Z-x.origin.Z)/x.cell) + 1)
	}
	for cells() > float64(4*len(pos)+64) {
		x.cell *= 2
	}
	x.nx = int((hi.X-x.origin.X)/x.cell) + 1
	x.ny = int((hi.Y-x.origin.Y)/x.cell) + 1
	x.nz = int((hi.Z-x.origin.Z)/x.cell) + 1

	// Counting sort by cell: counts, prefix sums, then a fill in ascending
	// ID order, which leaves every cell's IDs ascending.
	of := make([]int32, len(pos))
	x.start = make([]int32, x.nx*x.ny*x.nz+1)
	for i, p := range pos {
		c := x.cellOf(p)
		of[i] = c
		x.start[c+1]++
	}
	for c := 1; c < len(x.start); c++ {
		x.start[c] += x.start[c-1]
	}
	x.ids = make([]NodeID, len(pos))
	fill := slices.Clone(x.start[:len(x.start)-1])
	for i, c := range of {
		x.ids[fill[c]] = NodeID(i)
		fill[c]++
	}
	return x
}

// cellOf returns the cell holding an indexed position.
func (x *SpatialIndex) cellOf(p Position) int32 {
	cx := int((p.X - x.origin.X) / x.cell)
	cy := int((p.Y - x.origin.Y) / x.cell)
	cz := int((p.Z - x.origin.Z) / x.cell)
	return int32((cz*x.ny+cy)*x.nx + cx)
}

// span returns the cells [lo, hi] of an axis of n cells from origin that
// the interval [v-r, v+r] touches: floor((v-r-origin)/cell) to
// floor((v+r-origin)/cell), clamped to the grid. lo > hi when it misses.
func (x *SpatialIndex) span(v, r, origin float64, n int) (lo, hi int) {
	a := math.Floor((v - r - origin) / x.cell)
	b := math.Floor((v + r - origin) / x.cell)
	if a > float64(n-1) || b < 0 {
		return 0, -1
	}
	lo, hi = 0, n-1
	if a > 0 {
		lo = int(a)
	}
	if b < float64(n-1) {
		hi = int(b)
	}
	return lo, hi
}

// appendWithin appends to dst the IDs above `after` of every node within
// distance r of p (inclusive), in cell order.
func (x *SpatialIndex) appendWithin(dst []NodeID, p Position, r float64, after NodeID) []NodeID {
	x0, x1 := x.span(p.X, r, x.origin.X, x.nx)
	y0, y1 := x.span(p.Y, r, x.origin.Y, x.ny)
	z0, z1 := x.span(p.Z, r, x.origin.Z, x.nz)
	if x0 > x1 {
		return dst
	}
	for cz := z0; cz <= z1; cz++ {
		for cy := y0; cy <= y1; cy++ {
			row := (cz*x.ny + cy) * x.nx
			for _, id := range x.ids[x.start[row+x0]:x.start[row+x1+1]] {
				if id > after && x.pos[id].Distance(p) <= r {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// Within returns the IDs of all nodes within distance r of p (inclusive),
// sorted ascending. The result is freshly allocated, at its exact size:
// the matches gather in a stack scratch first (most neighbourhoods fit), so
// a query makes one allocation and no per-query garbage. Callers may keep
// the result.
func (x *SpatialIndex) Within(p Position, r float64) []NodeID {
	if r < 0 {
		return nil
	}
	var scratch [256]NodeID
	found := x.appendWithin(scratch[:0], p, r, -1)
	out := make([]NodeID, len(found))
	copy(out, found)
	slices.Sort(out) // IDs are distinct, so any sort gives this order
	return out
}

// Near returns the IDs of all nodes within distance r of node i, excluding
// i itself, sorted ascending.
func (x *SpatialIndex) Near(i NodeID, r float64) []NodeID {
	all := x.Within(x.pos[i], r)
	out := all[:0]
	for _, id := range all {
		if id != i {
			out = append(out, id)
		}
	}
	return out
}

// Pairs calls fn(i, j) for every pair of nodes i < j within distance r of
// each other (inclusive), in ascending (i, j) order: the order the
// generators draw link noise in. Each i's partners gather in one scratch
// reused across the whole walk.
func (x *SpatialIndex) Pairs(r float64, fn func(i, j NodeID)) {
	if r < 0 {
		return
	}
	var scratch []NodeID
	for i, p := range x.pos {
		scratch = x.appendWithin(scratch[:0], p, r, NodeID(i))
		slices.Sort(scratch)
		for _, j := range scratch {
			fn(NodeID(i), j)
		}
	}
}
