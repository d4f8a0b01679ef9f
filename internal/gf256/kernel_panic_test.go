package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The façade in kernel.go owns every argument check, so all kernel arms must
// exhibit identical panic behavior. These tests iterate the full table of
// panic paths over every available arm (SIMD included) and pin the message
// prefix so refactors cannot silently drop or reword a check.

func allKernels(t testing.TB) []*Kernel {
	t.Helper()
	var kns []*Kernel
	for _, name := range AvailableKernels() {
		kn, err := newKernelNamed(name)
		if err != nil {
			t.Fatalf("newKernelNamed(%q): %v", name, err)
		}
		kns = append(kns, kn)
	}
	return kns
}

func TestKernelPanicPathsAllArms(t *testing.T) {
	// ready returns a kernel with two 4-byte rows installed.
	ready := func(kn *Kernel) *Kernel {
		kn.SetRows([][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}})
		return kn
	}
	cases := []struct {
		name string
		want string // required panic message prefix
		call func(kn *Kernel)
	}{
		{"SetRows nil", "gf256: Kernel.SetRows with no rows",
			func(kn *Kernel) { kn.SetRows(nil) }},
		{"SetRows empty slice", "gf256: Kernel.SetRows with no rows",
			func(kn *Kernel) { kn.SetRows([][]byte{}) }},
		{"SetRows zero-size rows", "gf256: Kernel.SetRows with empty rows",
			func(kn *Kernel) { kn.SetRows([][]byte{{}, {}}) }},
		{"SetRows ragged", "gf256: Kernel.SetRows with ragged rows",
			func(kn *Kernel) { kn.SetRows([][]byte{{1, 2}, {3}}) }},
		{"Combine coeff count short", "gf256: Kernel.Combine coefficient count mismatch",
			func(kn *Kernel) { ready(kn).Combine(make([]byte, 4), []byte{1}) }},
		{"Combine coeff count long", "gf256: Kernel.Combine coefficient count mismatch",
			func(kn *Kernel) { ready(kn).Combine(make([]byte, 4), []byte{1, 2, 3}) }},
		{"Combine dst short", "gf256: Kernel.Combine length mismatch",
			func(kn *Kernel) { ready(kn).Combine(make([]byte, 3), []byte{1, 2}) }},
		{"Combine dst long", "gf256: Kernel.Combine length mismatch",
			func(kn *Kernel) { ready(kn).Combine(make([]byte, 5), []byte{1, 2}) }},
		{"CombineMany product count", "gf256: CombineMany product count mismatch",
			func(kn *Kernel) {
				ready(kn).CombineMany([][]byte{make([]byte, 4)}, [][]byte{{1, 2}, {3, 4}})
			}},
		{"CombineMany coeff count", "gf256: CombineMany coefficient count mismatch",
			func(kn *Kernel) {
				ready(kn).CombineMany([][]byte{make([]byte, 4)}, [][]byte{{1}})
			}},
		{"CombineMany dst length", "gf256: CombineMany length mismatch",
			func(kn *Kernel) {
				ready(kn).CombineMany([][]byte{make([]byte, 3)}, [][]byte{{1, 2}})
			}},
		{"CombineInto count mismatch", "gf256: CombineInto row/coefficient count mismatch",
			func(kn *Kernel) {
				kn.CombineInto(make([]byte, 2), [][]byte{{1, 2}}, []byte{1, 2})
			}},
		{"CombineInto src length", "gf256: CombineInto length mismatch",
			func(kn *Kernel) {
				kn.CombineInto(make([]byte, 2), [][]byte{{1, 2}, {3}}, []byte{1, 2})
			}},
	}
	for _, kn := range allKernels(t) {
		for _, tc := range cases {
			t.Run(kn.name+"/"+tc.name, func(t *testing.T) {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s did not panic", tc.name)
					}
					msg, ok := r.(string)
					if !ok || !strings.HasPrefix(msg, tc.want) {
						t.Fatalf("%s panicked with %v, want prefix %q", tc.name, r, tc.want)
					}
				}()
				kn2, err := newKernelNamed(kn.name)
				if err != nil {
					t.Fatal(err)
				}
				tc.call(kn2)
			})
		}
	}
}

// TestKernelNonPanicEdges pins the boundary calls that must NOT panic.
func TestKernelNonPanicEdges(t *testing.T) {
	for _, kn := range allKernels(t) {
		t.Run(kn.name, func(t *testing.T) {
			// CombineMany with zero products is a no-op, not an error.
			kn.SetRows([][]byte{{1, 2}})
			kn.CombineMany(nil, nil)
			kn.CombineMany([][]byte{}, [][]byte{})
			// CombineInto with zero rows zero-fills dst.
			dst := []byte{0xff, 0xff}
			kn.CombineInto(dst, nil, nil)
			if dst[0] != 0 || dst[1] != 0 {
				t.Fatalf("CombineInto with no rows left dst %x, want zeros", dst)
			}
		})
	}
}

// TestKernelSetRowsReuse drives one kernel instance through batches of
// differing row counts and sizes (grow, shrink, grow again) and checks
// correctness against the reference after every transition. This pins the
// backing-store reuse logic in each arm (flat snapshot in the SIMD arms,
// subset tables in the portable arm).
func TestKernelSetRowsReuse(t *testing.T) {
	shapes := []struct{ k, size int }{
		{4, 64}, {16, 1500}, {1, 1}, {32, 1500}, {8, 17}, {32, 96}, {2, 1024},
	}
	rng := rand.New(rand.NewSource(42))
	for _, kn := range allKernels(t) {
		ref, err := newKernelNamed(KernelReference)
		if err != nil {
			t.Fatal(err)
		}
		for si, sh := range shapes {
			t.Run(fmt.Sprintf("%s/batch%d_k%d_size%d", kn.name, si, sh.k, sh.size), func(t *testing.T) {
				rows := make([][]byte, sh.k)
				for i := range rows {
					rows[i] = make([]byte, sh.size)
					rng.Read(rows[i])
				}
				kn.SetRows(rows)
				ref.SetRows(rows)
				if kn.k != sh.k {
					t.Fatalf("k = %d, want %d", kn.k, sh.k)
				}
				coeffs := make([]byte, sh.k)
				for trial := 0; trial < 4; trial++ {
					rng.Read(coeffs)
					got := make([]byte, sh.size)
					want := make([]byte, sh.size)
					kn.Combine(got, coeffs)
					ref.Combine(want, coeffs)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s diverges after reuse at shape k=%d size=%d", kn.name, sh.k, sh.size)
					}
				}
			})
		}
	}
}
