package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// spatialWorld is one set of positions the index is checked over, with the
// cell width it is built at and the radii it is queried at.
type spatialWorld struct {
	name  string
	pos   []Position
	cell  float64
	radii []float64
}

// spatialWorlds are the worlds the index tests share: points exactly on cell
// boundaries (a lattice at the cell width, so lattice distances hit the
// radius exactly, once with its floors inside one layer of cells and once
// with a floor on every layer boundary), negative coordinates, several
// floors, heights spread continuously, a box neither square nor flat (so a
// z stride or span that mixes up the axes misses cells), radii below, equal
// to and above the cell width, a box sparse enough that the index widens
// its cells, and the empty and one-node indexes.
func spatialWorlds() []spatialWorld {
	rng := rand.New(rand.NewSource(11))
	lattice := func(zstep float64) []Position {
		var pos []Position
		for z := 0; z < 3; z++ {
			for y := -4; y <= 4; y++ {
				for x := -5; x <= 5; x++ {
					pos = append(pos, Position{float64(x) * 10, float64(y) * 10, float64(z) * zstep})
				}
			}
		}
		rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
		return pos
	}
	random := func(n int, side, floors float64) []Position {
		pos := make([]Position, n)
		for i := range pos {
			pos[i] = Position{rng.Float64()*side - side/2, rng.Float64()*side - side/2, float64(rng.Intn(int(floors))) * 4}
		}
		return pos
	}
	heights := make([]Position, 300)
	for i := range heights {
		heights[i] = Position{rng.Float64()*400 - 200, rng.Float64()*400 - 200, rng.Float64() * 12}
	}
	tower := make([]Position, 400)
	for i := range tower {
		tower[i] = Position{rng.Float64()*120 - 60, rng.Float64() * 60, float64(rng.Intn(5)*12) - 20}
	}
	sparse := []Position{{0, 0, 0}, {1e4, -3, 0}, {-1e4, 7, 2}, {5000, 5000, 0}, {1, 1, 1}}
	return []spatialWorld{
		{"lattice", lattice(4), 10, []float64{0, 4, 10, 14.142135623730951, 20, 30, 200}},
		{"lattice-floors-on-boundaries", lattice(10), 10, []float64{0, 9.9, 10, 14.142135623730951, 17.320508075688775, 20, 35}},
		{"random-3-floors", random(300, 400, 3), 30, []float64{7, 29.9, 30, 30.1, 61, 120}},
		{"continuous-heights", heights, 7, []float64{3, 7, 12, 40, 120}},
		{"continuous-heights-wide-cells", heights, 95, []float64{3, 95, 120}},
		{"tower-5-floors", tower, 10, []float64{5, 10, 12, 12.5, 24, 30, 50}},
		{"random-fine-cells", random(200, 300, 1), 7, []float64{3, 7, 20, 95}},
		{"sparse-widened", sparse, 1, []float64{0.5, 2, 1e4, 2e4}},
		{"one-node", []Position{{-3, 2, 8}}, 5, []float64{0, 5, 50}},
		{"empty", nil, 5, []float64{0, 5}},
	}
}

// queryPoints are the centres a world is queried at: every node's own
// position, points halfway between pairs, and points outside the box.
func queryPoints(pos []Position) []Position {
	q := slices.Clone(pos)
	for i := 0; i+1 < len(pos); i += 7 {
		a, b := pos[i], pos[i+1]
		q = append(q, Position{(a.X + b.X) / 2, (a.Y + b.Y) / 2, (a.Z + b.Z) / 2})
	}
	return append(q, Position{-1e5, 0, 0}, Position{0, 1e5, 0}, Position{0, 0, -40})
}

// TestSpatialIndexMatchesBruteForce: Within returns exactly the nodes an
// all-pairs scan finds within r (inclusive), ascending, and Near the same
// minus the node itself, in every world of spatialWorlds.
func TestSpatialIndexMatchesBruteForce(t *testing.T) {
	layered := false
	for _, w := range spatialWorlds() {
		idx := NewSpatialIndex(w.pos, w.cell)
		layered = layered || idx.nz > 2 && idx.nx != idx.ny
		for _, r := range w.radii {
			for qi, center := range queryPoints(w.pos) {
				var want []NodeID
				for i, p := range w.pos {
					if p.Distance(center) <= r {
						want = append(want, NodeID(i))
					}
				}
				if got := idx.Within(center, r); !slices.Equal(got, want) {
					t.Fatalf("%s: Within(%v, %v) = %v, want %v", w.name, center, r, got, want)
				}
				if qi >= len(w.pos) {
					continue
				}
				self := NodeID(qi)
				want = slices.DeleteFunc(want, func(id NodeID) bool { return id == self })
				if got := idx.Near(self, r); !slices.Equal(got, want) {
					t.Fatalf("%s: Near(%d, %v) = %v, want %v", w.name, self, r, got, want)
				}
			}
		}
		if got := idx.Within(Position{}, -1); got != nil {
			t.Fatalf("%s: a negative radius finds %v", w.name, got)
		}
	}
	if !layered {
		t.Fatal("no world builds a grid with several layers of cells over a non-square floor, so the z stride goes unchecked")
	}
}

// TestPairsMatchBruteForce: Pairs emits exactly the pairs i < j an
// all-pairs scan finds within r (inclusive), each once, in ascending (i, j)
// order, in every world of spatialWorlds.
func TestPairsMatchBruteForce(t *testing.T) {
	for _, w := range spatialWorlds() {
		idx := NewSpatialIndex(w.pos, w.cell)
		for _, r := range append(w.radii, -1) {
			var want, got [][2]NodeID
			for i := range w.pos {
				for j := i + 1; j < len(w.pos); j++ {
					if w.pos[i].Distance(w.pos[j]) <= r {
						want = append(want, [2]NodeID{NodeID(i), NodeID(j)})
					}
				}
			}
			idx.Pairs(r, func(i, j NodeID) { got = append(got, [2]NodeID{i, j}) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s r %v: %d pairs %v, want %d %v", w.name, r, len(got), head(got), len(want), head(want))
			}
		}
	}
}

func head(pairs [][2]NodeID) string {
	if len(pairs) > 8 {
		return fmt.Sprint(pairs[:8], "…")
	}
	return fmt.Sprint(pairs)
}

func TestWithinAllocatesOnlyItsResult(t *testing.T) {
	// A query makes one allocation, its result at the exact size: no
	// growth steps, no sort closure.
	rng := rand.New(rand.NewSource(5))
	pos := make([]Position, 300)
	for i := range pos {
		pos[i] = Position{rng.Float64() * 200, rng.Float64() * 200, 0}
	}
	idx := NewSpatialIndex(pos, 40)
	var got []NodeID
	allocs := testing.AllocsPerRun(50, func() { got = idx.Within(pos[0], 40) })
	if len(got) < 2 || cap(got) != len(got) {
		t.Fatalf("Within found %d nodes in a result of capacity %d", len(got), cap(got))
	}
	if allocs != 1 {
		t.Errorf("Within allocates %v objects, want 1", allocs)
	}
}
