package coding

import (
	"errors"

	"repro/internal/gf256"
)

// referenceDecode is a one-shot Gauss–Jordan decoder over a full matrix of
// received coded packets. It exists as an independent oracle for the
// progressive Decoder: tests feed both the same packets and require
// identical output. It is also how a naive implementation without §3.2.3's
// optimizations would decode, so the benchmarks compare against it.
//
// pkts must contain at least k linearly independent packets with K-length
// vectors and equal payload sizes. The input packets are not modified.
func referenceDecode(k int, pkts []*Packet) ([][]byte, error) {
	if len(pkts) == 0 {
		return nil, errors.New("coding: no packets")
	}
	size := len(pkts[0].Payload)
	// Build working copies.
	rows := make([]*Packet, 0, len(pkts))
	for _, p := range pkts {
		if len(p.Vector) != k || len(p.Payload) != size {
			return nil, errors.New("coding: inconsistent packet shapes")
		}
		rows = append(rows, p.Clone())
	}
	// Forward elimination with partial pivoting (any nonzero pivot works
	// in a field).
	rank := 0
	for col := 0; col < k && rank < len(rows); col++ {
		// Find a pivot row.
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if rows[r].Vector[col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		// Normalize.
		inv := gf256.Inv(rows[rank].Vector[col])
		gf256.ScaleSlice(rows[rank].Vector, inv)
		gf256.ScaleSlice(rows[rank].Payload, inv)
		// Eliminate the column everywhere else (Gauss–Jordan).
		for r := 0; r < len(rows); r++ {
			if r == rank {
				continue
			}
			c := rows[r].Vector[col]
			if c == 0 {
				continue
			}
			gf256.MulAddSlice(rows[r].Vector, rows[rank].Vector, c)
			gf256.MulAddSlice(rows[r].Payload, rows[rank].Payload, c)
		}
		rank++
	}
	if rank < k {
		return nil, errors.New("coding: rank deficient")
	}
	// Rows 0..k-1 now hold the identity in column order; row i's pivot
	// column is the i-th pivot found, which (having reached full rank)
	// must be column i.
	out := make([][]byte, k)
	for i := 0; i < k; i++ {
		if rows[i].Vector[i] != 1 {
			return nil, errors.New("coding: internal pivot error")
		}
		out[i] = rows[i].Payload
	}
	return out, nil
}

// rank computes the rank of a set of code vectors without touching
// payloads — the pure-algebra form of the Buffer's incremental tracking.
func rank(k int, vectors [][]byte) int {
	buf := NewBuffer(k, 1)
	for _, v := range vectors {
		if len(v) != k {
			continue
		}
		p := &Packet{Vector: append([]byte(nil), v...), Payload: []byte{0}}
		buf.Add(p)
	}
	return buf.Rank()
}
