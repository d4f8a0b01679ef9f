package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/cpufeat"
)

// archTestArms adds the single-row bodies archArms leaves out on this CPU
// although it can run them: on an AVX2 machine dispatch always takes the
// 32-byte pshufb form, so the 16-byte SSSE3 form is crossed only here.
func archTestArms() []testArm {
	if cpufeat.X86.AVX2 && cpufeat.X86.SSSE3 {
		return []testArm{{"pshufb-ssse3", &pshufbArm}}
	}
	return nil
}

// combineWidths returns the block widths in bytes the named arm's
// multi-row form is to be tested at on this host: the gfni arm's one-pass
// body at 32 (YMM) and, where AVX-512 is enabled, 64 (ZMM); a single 0,
// meaning "as dispatched", for every other arm.
func combineWidths(name string) []int {
	switch {
	case name != KernelGFNI:
		return []int{0}
	case cpufeat.X86.AVX512BW:
		return []int{32, 64}
	}
	return []int{32}
}

// withCombineWidth runs f with the gfni one-pass body pinned to width w
// (combineWidths), and puts the dispatched width back afterwards.
func withCombineWidth(w int, f func()) {
	if w == 0 {
		f()
		return
	}
	prev := gfniZMM
	gfniZMM = w == 64
	defer func() { gfniZMM = prev }()
	f()
}

// TestSetRowsAlignsRows: every row of a SIMD kernel's snapshot starts on a
// 64-byte boundary, whatever the row length and however the snapshot was
// grown, so no vector load of it straddles two cache lines.
func TestSetRowsAlignsRows(t *testing.T) {
	for _, name := range []string{KernelGFNI, KernelPSHUFB} {
		kn, err := newKernelNamed(name)
		if err != nil {
			continue // not on this CPU
		}
		for _, shape := range [][2]int{{1, 1}, {3, 31}, {32, 1500}, {5, 100}, {40, 1500}, {2, 65}} {
			rows, _ := randomRows(rand.New(rand.NewSource(int64(shape[1]))), shape[0], shape[1])
			kn.SetRows(rows)
			for i, r := range kn.impl.(*simdKernel).rows {
				if p := uintptr(unsafe.Pointer(&r[0])); p&63 != 0 {
					t.Fatalf("%s %d×%d B: row %d starts at %#x", name, shape[0], shape[1], i, p)
				}
				if !bytes.Equal(r, rows[i]) {
					t.Fatalf("%s %d×%d B: row %d is not a copy", name, shape[0], shape[1], i)
				}
			}
		}
	}
	for _, n := range []int{1, 63, 64, 100, 1536, 49152, 50000} {
		if b := aligned64(n); len(b) != n || uintptr(unsafe.Pointer(&b[0]))&63 != 0 {
			t.Fatalf("aligned64(%d): %d bytes at %p", n, len(b), &b[0])
		}
	}
}
