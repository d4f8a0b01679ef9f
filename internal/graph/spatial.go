package graph

import "slices"

// SpatialIndex is a uniform grid over node positions: 3-D buckets of cell
// width `cell`, answering "which nodes lie within radius r of here" in time
// proportional to the local population instead of N. The simulator uses it
// for carrier-sense neighborhoods, the generators for candidate-link search.
type SpatialIndex struct {
	pos     []Position
	cell    float64
	buckets map[cellKey][]NodeID
}

type cellKey struct{ x, y, z int32 }

// NewSpatialIndex buckets the positions into cells of the given width. A
// non-positive cell width falls back to 1.
func NewSpatialIndex(pos []Position, cell float64) *SpatialIndex {
	if cell <= 0 {
		cell = 1
	}
	x := &SpatialIndex{
		pos:     pos,
		cell:    cell,
		buckets: make(map[cellKey][]NodeID, len(pos)),
	}
	for i, p := range pos {
		k := x.key(p)
		x.buckets[k] = append(x.buckets[k], NodeID(i))
	}
	return x
}

func (x *SpatialIndex) key(p Position) cellKey {
	return cellKey{
		x: int32(floorDiv(p.X, x.cell)),
		y: int32(floorDiv(p.Y, x.cell)),
		z: int32(floorDiv(p.Z, x.cell)),
	}
}

func floorDiv(v, cell float64) int {
	q := v / cell
	i := int(q)
	if q < 0 && float64(i) != q {
		i--
	}
	return i
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
	found := scratch[:0]
	c := x.key(p)
	span := int32(floorDiv(r, x.cell)) + 1
	for dz := -span; dz <= span; dz++ {
		for dy := -span; dy <= span; dy++ {
			for dx := -span; dx <= span; dx++ {
				ids := x.buckets[cellKey{c.x + dx, c.y + dy, c.z + dz}]
				for _, id := range ids {
					if x.pos[id].Distance(p) <= r {
						found = append(found, id)
					}
				}
			}
		}
	}
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
