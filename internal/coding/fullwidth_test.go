package coding

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf256"
)

// suffixElim is Algorithm 2 as Buffer and Decoder ran it before they
// eliminated on whole code vectors: row operations touch only the suffix
// from the pivot on, byte by byte through gf256.Mul, so it shares neither
// the full-width shape nor the slice kernels with the code under test.
type suffixElim struct {
	k    int
	vecs [][]byte // vecs[i]: echelon row with pivot i (normalized to 1), or nil
	pays [][]byte
	rank int
}

func mulAddSuffix(dst, src []byte, c byte, from int) {
	for j := from; j < len(dst); j++ {
		dst[j] ^= gf256.Mul(src[j], c)
	}
}

func (e *suffixElim) innovative(vector []byte) bool {
	u := append([]byte(nil), vector...)
	for i := 0; i < e.k; i++ {
		if u[i] == 0 {
			continue
		}
		if e.vecs[i] == nil {
			return true
		}
		mulAddSuffix(u, e.vecs[i], u[i], i)
	}
	return false
}

func (e *suffixElim) add(p *Packet) bool {
	v, pay := append([]byte(nil), p.Vector...), append([]byte(nil), p.Payload...)
	for i := 0; i < e.k; i++ {
		c := v[i]
		if c == 0 {
			continue
		}
		if e.vecs[i] == nil {
			inv := gf256.Inv(c)
			for j := range v {
				v[j] = gf256.Mul(v[j], inv)
			}
			for j := range pay {
				pay[j] = gf256.Mul(pay[j], inv)
			}
			e.vecs[i], e.pays[i] = v, pay
			e.rank++
			return true
		}
		mulAddSuffix(v, e.vecs[i], c, i)
		mulAddSuffix(pay, e.pays[i], c, 0)
	}
	return false
}

// TestEliminationFullWidthMatchesSuffix: Buffer.Innovative and Buffer.Add
// eliminate on whole vectors (one SIMD block at K = 32) where they used to
// eliminate on suffixes; both operands are zero before the pivot, so every
// verdict, rank and stored row (a row's payload through its transform row)
// must equal the suffix form's. A Decoder is a Buffer, so it runs the same
// checks, and its Decode by back-substitution must return the natives and
// referenceDecode's output over every packet fed — for two batches through
// one decoder, across Reset. All on every kernel arm the host has, at batch
// sizes below, at and above the arms' 32-byte block.
func TestEliminationFullWidthMatchesSuffix(t *testing.T) {
	const size = 48
	forEachArm(t, func(t *testing.T) {
		arm := gf256.ActiveKernel()
		for _, k := range []int{1, 8, 31, 32, 33, 64} {
			rng := rand.New(rand.NewSource(int64(k)))
			dec := NewDecoder(k, size)
			for batch := 0; batch < 2; batch++ {
				dec.Reset()
				natives := randomNatives(rng, k, size)
				ref := &suffixElim{k: k, vecs: make([][]byte, k), pays: make([][]byte, k)}
				var fed []*Packet
				for n := 0; !dec.Complete(); n++ {
					if n > 40*k+100 {
						t.Fatalf("%s K=%d: rank %d after %d packets", arm, k, dec.Rank(), n)
					}
					p := randomFill(rng, natives, fed)
					fed = append(fed, p)
					want := ref.innovative(p.Vector)
					if got := dec.Innovative(p.Vector); got != want {
						t.Fatalf("%s K=%d packet %d: Innovative = %v, suffix form %v", arm, k, n, got, want)
					}
					if got := dec.Add(p.Clone()); got != want {
						t.Fatalf("%s K=%d packet %d: Add = %v, suffix form %v", arm, k, n, got, want)
					}
					if ref.add(p) != want {
						t.Fatalf("%s K=%d packet %d: suffix form disagrees with itself", arm, k, n)
					}
					if dec.Rank() != ref.rank {
						t.Fatalf("%s K=%d packet %d: rank %d, suffix form %d", arm, k, n, dec.Rank(), ref.rank)
					}
					for i := 0; i < k; i++ {
						switch row := dec.rows[i]; {
						case (row == nil) != (ref.vecs[i] == nil):
							t.Fatalf("%s K=%d packet %d: slot %d occupancy differs", arm, k, n, i)
						case row == nil:
						case !bytes.Equal(dec.row(i)[:k], ref.vecs[i]) || !bytes.Equal(echelonPayload(&dec.Buffer, i), ref.pays[i]):
							t.Fatalf("%s K=%d packet %d: row %d differs from the suffix form's", arm, k, n, i)
						}
					}
				}
				decoded, err := dec.Decode()
				if err != nil {
					t.Fatalf("%s K=%d: %v", arm, k, err)
				}
				reference, err := referenceDecode(k, fed)
				if err != nil {
					t.Fatalf("%s K=%d: referenceDecode: %v", arm, k, err)
				}
				for i := range natives {
					if !bytes.Equal(decoded[i], natives[i]) || !bytes.Equal(reference[i], natives[i]) {
						t.Fatalf("%s K=%d batch %d: native %d decoded wrong", arm, k, batch, i)
					}
				}
			}
		}
	})
}

// echelonPayload returns the payload of buf's echelon row i, byte by byte
// through gf256.Mul from its transform row and the received payloads.
func echelonPayload(buf *Buffer, i int) []byte {
	out := make([]byte, buf.size)
	for j, row := range buf.rows {
		if row != nil {
			mulAddSuffix(out, row.Payload, buf.row(i)[buf.k+j], 0)
		}
	}
	return out
}

// randomFill draws a coded packet over natives with one of the vector
// shapes elimination meets: dense, sparse, zero up to a random pivot (what
// a downstream forwarder's echelon rows look like), or a combination of
// packets already fed (never innovative).
func randomFill(rng *rand.Rand, natives [][]byte, fed []*Packet) *Packet {
	k := len(natives)
	p := &Packet{Vector: make([]byte, k), Payload: make([]byte, len(natives[0]))}
	switch shape := rng.Intn(4); {
	case shape == 0 && len(fed) > 0:
		for i := 0; i < 3; i++ {
			q, c := fed[rng.Intn(len(fed))], byte(rng.Intn(256))
			mulAddSuffix(p.Vector, q.Vector, c, 0)
			mulAddSuffix(p.Payload, q.Payload, c, 0)
		}
		return p
	case shape == 1:
		for i := 0; i < 1+k/8; i++ {
			p.Vector[rng.Intn(k)] = byte(rng.Intn(256))
		}
	case shape == 2:
		rng.Read(p.Vector[rng.Intn(k):])
	default:
		rng.Read(p.Vector)
	}
	for j, c := range p.Vector {
		mulAddSuffix(p.Payload, natives[j], c, 0)
	}
	return p
}
