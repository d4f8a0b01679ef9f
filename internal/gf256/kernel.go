package gf256

// This file is the kernel façade: the multi-row combine API
//
//	dst = Σ coeffs[i] · rows[i]
//
// that the packet pipeline codes, recodes and decodes through. The façade
// owns every argument check (so all implementations share identical panic
// behavior, pinned by kernel_panic_test.go) and dispatches the byte
// crunching to one of several interchangeable implementations. Each is an
// arm (dispatch.go): a name and a single-row primitive pair, mul
// (dst = c·src) and mulAdd (dst ^= c·src), on which the arm's multi-row
// form here and the free MulSlice/MulAddSlice/ScaleSlice both run:
//
//   - portable: the word-wise SWAR form in kernel_generic.go — bit-plane
//     decomposition, 4-bit-nibble subset tables, 64-byte register strips.
//     Runs everywhere; the fallback the SIMD forms are proven against.
//   - pshufb (amd64): 16-byte-nibble-shuffle multiply in kernel_amd64.s —
//     two PSHUFB table lookups per 16 input bytes, widened to 32-byte AVX2
//     lanes when the CPU has them.
//   - gfni (amd64): one VGF2P8AFFINEQB per 32 input bytes, multiplying by a
//     constant via its 8×8 bit matrix over GF(2) (the affine form works for
//     our 0x11D polynomial where GF2P8MULB's hardwired 0x11B would not). Its
//     multi-row form is one pass: every output block is accumulated over all
//     rows in registers, in 64-byte ZMM lanes where AVX-512 is enabled.
//   - reference: the byte-wise mulTable loop in reference.go — the oracle
//     all word/vector forms are differentially fuzzed against, never
//     selected by auto dispatch.
//
// Selection is automatic at startup (best kernel the CPU supports), forced
// by the GF256_KERNEL environment variable, or switched programmatically
// with SetKernel — see dispatch.go. Every implementation must produce
// byte-identical output for identical inputs; FuzzKernelEquivalence crosses
// all of them — the multi-row entry points and each arm's single-row pair —
// on random shapes, tails, alignments and exact dst == src aliasing.

// Kernel is a reusable multi-row combine engine. A zero-value Kernel is not
// usable; obtain one with NewKernel (the active implementation; the
// package's tests pick an arm with newKernelNamed). Kernels hold scratch state and are not safe for
// concurrent use — the packet pipeline owns one per flow.
type Kernel struct {
	k    int    // rows captured by SetRows (0 before the first SetRows)
	size int    // row length
	name string // the arm backing this kernel
	impl kernelImpl
}

// kernelImpl is the contract a combine implementation fulfills. The façade
// validates every argument before dispatching, so implementations may
// assume: setRows receives a non-empty set of equal-length nonzero rows;
// combine/combineMany receive k-length coefficient vectors and size-length
// destinations; combineInto receives sources matching the coefficient
// count, all exactly len(dst) (it is independent of setRows state).
type kernelImpl interface {
	setRows(rows [][]byte)
	combine(dst, coeffs []byte)
	combineMany(dsts, coeffs [][]byte)
	combineInto(dst []byte, srcs [][]byte, coeffs []byte)
}

// NewKernel returns an empty kernel backed by the active implementation
// (ActiveKernel; portable SWAR unless the CPU offers better or GF256_KERNEL
// overrides).
func NewKernel() *Kernel { return newKernel(active.Load()) }

// newKernelNamed returns an empty kernel backed by the named implementation
// regardless of the active selection. It errors if the implementation is
// unknown or not supported on this CPU.
func newKernelNamed(name string) (*Kernel, error) {
	a, err := findArm(name)
	if err != nil {
		return nil, err
	}
	return newKernel(a), nil
}

// SetRows captures rows for repeated Combine calls, building whatever
// per-batch acceleration state the implementation uses (subset tables for
// the portable form, a flat row copy for the SIMD forms). All rows must
// have equal nonzero length. The rows are copied; later mutation of the
// originals does not affect the kernel.
func (kn *Kernel) SetRows(rows [][]byte) {
	if len(rows) == 0 {
		panic("gf256: Kernel.SetRows with no rows")
	}
	size := len(rows[0])
	if size == 0 {
		panic("gf256: Kernel.SetRows with empty rows")
	}
	for _, r := range rows {
		if len(r) != size {
			panic("gf256: Kernel.SetRows with ragged rows")
		}
	}
	kn.k = len(rows)
	kn.size = size
	kn.impl.setRows(rows)
}

// Combine sets dst = Σ coeffs[i]·rows[i] over the rows captured by SetRows.
// len(coeffs) must equal the number of rows and len(dst) must equal the row length; dst
// must not alias the captured rows' storage (it never does — SetRows
// copies).
func (kn *Kernel) Combine(dst, coeffs []byte) {
	if len(coeffs) != kn.k {
		panic("gf256: Kernel.Combine coefficient count mismatch")
	}
	if len(dst) != kn.size {
		panic("gf256: Kernel.Combine length mismatch")
	}
	kn.impl.combine(dst, coeffs)
}

// CombineMany computes dsts[p] = Σ coeffs[p][i]·rows[i] for every product p
// over the rows captured by SetRows. This is the decoder's shape — K
// natives recovered from one stored batch — and implementations batch it so
// per-batch state stays hot across products.
func (kn *Kernel) CombineMany(dsts [][]byte, coeffs [][]byte) {
	if len(dsts) != len(coeffs) {
		panic("gf256: CombineMany product count mismatch")
	}
	if len(dsts) == 0 {
		return
	}
	for p := range dsts {
		if len(coeffs[p]) != kn.k {
			panic("gf256: CombineMany coefficient count mismatch")
		}
		if len(dsts[p]) != kn.size {
			panic("gf256: CombineMany length mismatch")
		}
	}
	kn.impl.combineMany(dsts, coeffs)
}

// CombineInto sets dst = Σ coeffs[i]·srcs[i] without any precomputation —
// the table-free path for recoding, where the combined rows change with
// every received packet. All srcs must share len(dst); dst must not alias
// any src. Rows with coefficient zero are never read. CombineInto is
// independent of SetRows state.
func (kn *Kernel) CombineInto(dst []byte, srcs [][]byte, coeffs []byte) {
	if len(srcs) != len(coeffs) {
		panic("gf256: CombineInto row/coefficient count mismatch")
	}
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic("gf256: CombineInto length mismatch")
		}
	}
	kn.impl.combineInto(dst, srcs, coeffs)
}
