package flow

// Table holds per-flow state indexed by flow ID. Flows are numbered densely
// from 1 (flow i of a run is ID(i+1)), so a node's flow state is a short
// slice read by index instead of a map hashed on every reception. Lookups
// never grow the table: a lookup of an ID past its end, such as the released
// sentinel ^ID(0) a recycled message carries, finds the zero T.
type Table[T any] struct {
	rows []T // by flow ID
}

// Get returns id's entry, or the zero T if the table holds none.
func (t *Table[T]) Get(id ID) T {
	if int64(id) < int64(len(t.rows)) {
		return t.rows[id]
	}
	var zero T
	return zero
}

// At returns a pointer to id's entry, first growing the table with zero
// entries to hold it in one step. At of the released sentinel panics: a
// writer holding a recycled message would otherwise ask for 2³² entries.
func (t *Table[T]) At(id ID) *T {
	if id == ^ID(0) {
		panic("flow: table entry for a released flow")
	}
	if int(id) >= len(t.rows) {
		t.rows = append(t.rows, make([]T, int(id)+1-len(t.rows))...)
	}
	return &t.rows[id]
}

// Rows returns the entries by flow ID, zero where a flow has none; range
// over it to visit every flow.
func (t *Table[T]) Rows() []T { return t.rows }
