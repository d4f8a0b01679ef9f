package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// MulSlice/MulAddSlice/AddSlice must match the byte-wise reference loops
// exactly for all 256 coefficients, the issue's length set (0, 1, 7, 8, 9,
// 1500) plus the dispatch cutoff and the vector block edges, and aliased
// dst==src — with every arm active in turn (forEachArm), since the slice
// operations run on whichever arm SetKernel selected.

var wordLengths = []int{0, 1, 7, 8, 9, 15, 16, 17, simdCutoff - 1, simdCutoff, simdCutoff + 1, 63, 64, 65, 1500}

func TestMulSliceWordAllCoefficients(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		for _, n := range wordLengths {
			src := make([]byte, n)
			rng.Read(src)
			for c := 0; c < 256; c++ {
				want := make([]byte, n)
				mulSliceGeneric(want, src, byte(c))
				got := make([]byte, n)
				MulSlice(got, src, byte(c))
				if !bytes.Equal(got, want) {
					t.Fatalf("MulSlice c=%d n=%d diverged from byte-wise reference", c, n)
				}
				// Aliased dst == src.
				aliased := append([]byte(nil), src...)
				MulSlice(aliased, aliased, byte(c))
				if !bytes.Equal(aliased, want) {
					t.Fatalf("MulSlice aliased c=%d n=%d diverged", c, n)
				}
			}
		}
	})
}

func TestMulAddSliceWordAllCoefficients(t *testing.T) {
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, n := range wordLengths {
			src := make([]byte, n)
			base := make([]byte, n)
			rng.Read(src)
			rng.Read(base)
			for c := 0; c < 256; c++ {
				want := append([]byte(nil), base...)
				mulAddSliceGeneric(want, src, byte(c))
				got := append([]byte(nil), base...)
				MulAddSlice(got, src, byte(c))
				if !bytes.Equal(got, want) {
					t.Fatalf("MulAddSlice c=%d n=%d diverged from byte-wise reference", c, n)
				}
			}
		}
	})
}

func TestMulAddSliceAliased(t *testing.T) {
	// dst == src: dst[i] ^= c*dst[i], i.e. dst scaled by (c+1).
	forEachArm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for _, n := range wordLengths {
			for _, c := range []byte{0, 1, 2, 77, 255} {
				v := make([]byte, n)
				rng.Read(v)
				want := make([]byte, n)
				for i := range v {
					want[i] = v[i] ^ Mul(v[i], c)
				}
				MulAddSlice(v, v, c)
				if !bytes.Equal(v, want) {
					t.Fatalf("MulAddSlice aliased c=%d n=%d diverged", c, n)
				}
			}
		}
	})
}

func TestAddSliceWord(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range wordLengths {
		a := make([]byte, n)
		b := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		want := make([]byte, n)
		for i := range a {
			want[i] = a[i] ^ b[i]
		}
		AddSlice(a, b)
		if !bytes.Equal(a, want) {
			t.Fatalf("AddSlice n=%d diverged", n)
		}
	}
}

// The two fuzzers below target the portable arm's pair by name, whatever
// arm is active; FuzzKernelEquivalence crosses every arm's pair.

func FuzzMulSliceWord(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(37))
	f.Add([]byte{}, byte(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 1500), byte(255))
	f.Fuzz(func(t *testing.T, src []byte, c byte) {
		want := make([]byte, len(src))
		mulSliceGeneric(want, src, c)
		got := make([]byte, len(src))
		mulSliceWord(got, src, c)
		if !bytes.Equal(got, want) {
			t.Fatalf("mulSliceWord diverged for c=%d len=%d", c, len(src))
		}
	})
}

func FuzzMulAddSliceWord(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(211), int64(1))
	f.Add([]byte{7}, byte(1), int64(2))
	f.Fuzz(func(t *testing.T, src []byte, c byte, seed int64) {
		dst := make([]byte, len(src))
		rand.New(rand.NewSource(seed)).Read(dst)
		want := append([]byte(nil), dst...)
		mulAddSliceGeneric(want, src, c)
		mulAddSliceWord(dst, src, c)
		if !bytes.Equal(dst, want) {
			t.Fatalf("mulAddSliceWord diverged for c=%d len=%d", c, len(src))
		}
	})
}
