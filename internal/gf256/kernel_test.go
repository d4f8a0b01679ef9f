package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// combineRef is the byte-wise oracle for the kernel: a plain reference loop
// over the seed mulTable path.
func combineRef(dst []byte, srcs [][]byte, coeffs []byte) {
	clear(dst)
	for i, c := range coeffs {
		mulAddSliceGeneric(dst, srcs[i], c)
	}
}

// kernelLengths are the payload lengths the issue calls out plus strip-edge
// cases for the 64-byte strip and 8-byte word tail.
var kernelLengths = []int{1, 7, 8, 9, 63, 64, 65, 100, 128, 777, 1499, 1500}

func randomRows(rng *rand.Rand, k, size int) ([][]byte, []byte) {
	rows := make([][]byte, k)
	for i := range rows {
		rows[i] = make([]byte, size)
		rng.Read(rows[i])
	}
	coeffs := make([]byte, k)
	rng.Read(coeffs)
	return rows, coeffs
}

func TestKernelCombineMatchesReference(t *testing.T) {
	kn := NewKernel()
	for _, w := range combineWidths(kn.name) {
		rng := rand.New(rand.NewSource(1))
		withCombineWidth(w, func() {
			for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 15, 32, 33, 128} {
				for _, size := range kernelLengths {
					rows, coeffs := randomRows(rng, k, size)
					kn.SetRows(rows)
					want := make([]byte, size)
					combineRef(want, rows, coeffs)
					got := make([]byte, size)
					kn.Combine(got, coeffs)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s width %d k=%d size=%d: Combine diverged from reference", kn.name, w, k, size)
					}
					got2 := make([]byte, size)
					kn.CombineInto(got2, rows, coeffs)
					if !bytes.Equal(got2, want) {
						t.Fatalf("%s width %d k=%d size=%d: CombineInto diverged from reference", kn.name, w, k, size)
					}
				}
			}
		})
	}
}

// TestOnePassCombineWidths crosses every arm's multi-row form — the gfni
// one-pass body at each width this host runs — with the byte-wise oracle
// for every row count 1…40 and the lengths around one and two 32-byte
// blocks plus a full packet. Every destination sits between guard bytes:
// the tail pass over the last whole block must write nothing outside it.
func TestOnePassCombineWidths(t *testing.T) {
	const guard = 64
	lengths := []int{1, 31, 32, 33, 63, 64, 65, 1500}
	for _, name := range fuzzArms(t) {
		kn, err := newKernelNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		widths := combineWidths(name)
		if name == KernelGFNI {
			t.Logf("gfni one-pass combine ran at widths %v bytes", widths)
		}
		for _, w := range widths {
			rng := rand.New(rand.NewSource(int64(w)))
			withCombineWidth(w, func() {
				for k := 1; k <= 40; k++ {
					for _, size := range lengths {
						rows, coeffs := randomRows(rng, k, size)
						if k%3 == 0 {
							coeffs[rng.Intn(k)] = 0 // a skipped row
						}
						want := make([]byte, size)
						combineRef(want, rows, coeffs)
						buf := bytes.Repeat([]byte{0xc3}, guard+size+guard)
						dst := buf[guard : guard+size : guard+size]
						kn.SetRows(rows)
						for _, into := range []bool{false, true} {
							if into {
								kn.CombineInto(dst, rows, coeffs)
							} else {
								kn.Combine(dst, coeffs)
							}
							if !bytes.Equal(dst, want) {
								t.Fatalf("%s width %d k=%d size=%d into=%v: diverged from reference", name, w, k, size, into)
							}
							for i, g := range buf {
								if (i < guard || i >= guard+size) && g != 0xc3 {
									t.Fatalf("%s width %d k=%d size=%d into=%v: wrote outside dst at %d", name, w, k, size, into, i-guard)
								}
							}
							clear(dst)
						}
					}
				}
			})
		}
	}
}

func TestKernelCombineSpecialCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kn := NewKernel()
	rows, _ := randomRows(rng, 8, 200)
	kn.SetRows(rows)
	cases := [][]byte{
		make([]byte, 8),                        // all zero -> zero output
		{1, 0, 0, 0, 0, 0, 0, 0},               // single identity
		{0, 0, 0, 0, 0, 0, 0, 255},             // single max coefficient
		{1, 1, 1, 1, 1, 1, 1, 1},               // pure XOR of all rows
		{2, 4, 8, 16, 32, 64, 128, 0x1D},       // powers of the generator
		{255, 255, 255, 255, 255, 255, 255, 1}, // dense high bits
	}
	for _, coeffs := range cases {
		want := make([]byte, 200)
		combineRef(want, rows, coeffs)
		got := make([]byte, 200)
		kn.Combine(got, coeffs)
		if !bytes.Equal(got, want) {
			t.Fatalf("coeffs %v: Combine diverged", coeffs)
		}
		got2 := make([]byte, 200)
		kn.CombineInto(got2, rows, coeffs)
		if !bytes.Equal(got2, want) {
			t.Fatalf("coeffs %v: CombineInto diverged", coeffs)
		}
	}
}

func TestKernelCombineManyMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	kn := NewKernel()
	for _, k := range []int{1, 3, 8, 32} {
		for _, size := range []int{1, 9, 64, 100, 1500} {
			rows, _ := randomRows(rng, k, size)
			kn.SetRows(rows)
			np := 1 + rng.Intn(40)
			coeffs := make([][]byte, np)
			dsts := make([][]byte, np)
			wants := make([][]byte, np)
			for p := range coeffs {
				coeffs[p] = make([]byte, k)
				rng.Read(coeffs[p])
				dsts[p] = make([]byte, size)
				wants[p] = make([]byte, size)
				combineRef(wants[p], rows, coeffs[p])
			}
			kn.CombineMany(dsts, coeffs)
			for p := range dsts {
				if !bytes.Equal(dsts[p], wants[p]) {
					t.Fatalf("k=%d size=%d np=%d: CombineMany product %d diverged", k, size, np, p)
				}
			}
		}
	}
}

func BenchmarkKernelCombineMany32x32x1500(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	rows, _ := randomRows(rng, 32, 1500)
	kn := NewKernel()
	kn.SetRows(rows)
	coeffs := make([][]byte, 32)
	dsts := make([][]byte, 32)
	for p := range coeffs {
		coeffs[p] = make([]byte, 32)
		rng.Read(coeffs[p])
		dsts[p] = make([]byte, 1500)
	}
	b.SetBytes(32 * 32 * 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.CombineMany(dsts, coeffs)
	}
}

func TestKernelReuseAcrossBatches(t *testing.T) {
	// Reusing one kernel across SetRows calls of different shapes must not
	// leak state between batches.
	rng := rand.New(rand.NewSource(3))
	kn := NewKernel()
	for iter := 0; iter < 20; iter++ {
		k := 1 + rng.Intn(40)
		size := 1 + rng.Intn(300)
		rows, coeffs := randomRows(rng, k, size)
		kn.SetRows(rows)
		want := make([]byte, size)
		combineRef(want, rows, coeffs)
		got := make([]byte, size)
		kn.Combine(got, coeffs)
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d (k=%d size=%d): kernel leaked state across batches", iter, k, size)
		}
	}
}

func TestKernelCopiesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows, coeffs := randomRows(rng, 4, 96)
	kn := NewKernel()
	kn.SetRows(rows)
	want := make([]byte, 96)
	combineRef(want, rows, coeffs)
	for i := range rows {
		rng.Read(rows[i]) // mutate originals after capture
	}
	got := make([]byte, 96)
	kn.Combine(got, coeffs)
	if !bytes.Equal(got, want) {
		t.Fatal("SetRows did not copy the rows")
	}
}

func TestKernelPanics(t *testing.T) {
	kn := NewKernel()
	for name, f := range map[string]func(){
		"empty rows":     func() { kn.SetRows(nil) },
		"zero-size rows": func() { kn.SetRows([][]byte{{}}) },
		"ragged rows":    func() { kn.SetRows([][]byte{{1, 2}, {3}}) },
		"coeff count": func() {
			kn2 := NewKernel()
			kn2.SetRows([][]byte{{1, 2}})
			kn2.Combine(make([]byte, 2), []byte{1, 2})
		},
		"dst length": func() {
			kn2 := NewKernel()
			kn2.SetRows([][]byte{{1, 2}})
			kn2.Combine(make([]byte, 3), []byte{1})
		},
		"into ragged": func() { kn.CombineInto(make([]byte, 2), [][]byte{{1}}, []byte{1}) },
		"into counts": func() { kn.CombineInto(make([]byte, 1), [][]byte{{1}}, []byte{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestXtimesMatchesScalarDouble(t *testing.T) {
	for x := 0; x < 256; x++ {
		var w uint64
		for lane := 0; lane < 8; lane++ {
			w |= uint64(byte(x+lane*37)) << (8 * lane)
		}
		got := xtimes(w)
		for lane := 0; lane < 8; lane++ {
			in := byte(w >> (8 * lane))
			if want := Mul(in, 2); byte(got>>(8*lane)) != want {
				t.Fatalf("xtimes lane %d of %#x: got %d want %d", lane, w, byte(got>>(8*lane)), want)
			}
		}
	}
}

// FuzzKernelCombine cross-checks both kernel modes against the byte-wise
// reference for arbitrary shapes and contents.
func FuzzKernelCombine(f *testing.F) {
	f.Add(int64(1), uint8(32), uint16(1500))
	f.Add(int64(2), uint8(1), uint16(1))
	f.Add(int64(3), uint8(5), uint16(65))
	f.Add(int64(4), uint8(128), uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, kRaw uint8, sizeRaw uint16) {
		k := int(kRaw)%130 + 1
		size := int(sizeRaw)%2000 + 1
		rng := rand.New(rand.NewSource(seed))
		rows, coeffs := randomRows(rng, k, size)
		want := make([]byte, size)
		combineRef(want, rows, coeffs)
		kn := NewKernel()
		kn.SetRows(rows)
		got := make([]byte, size)
		kn.Combine(got, coeffs)
		if !bytes.Equal(got, want) {
			t.Fatalf("Combine diverged (k=%d size=%d)", k, size)
		}
		got2 := make([]byte, size)
		kn.CombineInto(got2, rows, coeffs)
		if !bytes.Equal(got2, want) {
			t.Fatalf("CombineInto diverged (k=%d size=%d)", k, size)
		}
	})
}

func BenchmarkKernelCombine32x1500(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	rows, coeffs := randomRows(rng, 32, 1500)
	kn := NewKernel()
	kn.SetRows(rows)
	dst := make([]byte, 1500)
	b.SetBytes(32 * 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.Combine(dst, coeffs)
	}
}

func BenchmarkKernelCombineInto32x1500(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	rows, coeffs := randomRows(rng, 32, 1500)
	kn := NewKernel()
	dst := make([]byte, 1500)
	b.SetBytes(32 * 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.CombineInto(dst, rows, coeffs)
	}
}

// BenchmarkCombineIntoWidths is BenchmarkKernelCombineInto32x1500 at each
// width the active arm's multi-row form runs at on this host.
func BenchmarkCombineIntoWidths(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	rows, coeffs := randomRows(rng, 32, 1500)
	kn := NewKernel()
	dst := make([]byte, 1500)
	for _, w := range combineWidths(kn.name) {
		b.Run(fmt.Sprintf("%s/%dB", kn.name, w), func(b *testing.B) {
			withCombineWidth(w, func() {
				b.SetBytes(32 * 1500)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					kn.CombineInto(dst, rows, coeffs)
				}
			})
		})
	}
}

// BenchmarkCombineReference is the seed-equivalent loop (one MulAddSlice per
// row) against which the kernel's speedup is reported in PERFORMANCE.md.
func BenchmarkCombineReference32x1500(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rows, coeffs := randomRows(rng, 32, 1500)
	dst := make([]byte, 1500)
	b.SetBytes(32 * 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		combineRef(dst, rows, coeffs)
	}
}

func BenchmarkKernelSetRows32x1500(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	rows, _ := randomRows(rng, 32, 1500)
	kn := NewKernel()
	kn.SetRows(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.SetRows(rows)
	}
}
