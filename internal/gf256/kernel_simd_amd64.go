package gf256

import (
	"unsafe"

	"repro/internal/cpufeat"
)

// The amd64 SIMD kernel arms. Where the portable kernel decomposes a
// multi-row combination into bit planes (kernel_generic.go), the SIMD arms
// take the direct route. The pshufb arm makes one constant-multiply-
// accumulate pass over the payload per nonzero coefficient (two fused per
// pass in its AVX2 form), 16 bytes (SSSE3 PSHUFB) or 32 bytes (AVX2
// VPSHUFB) at a time. The gfni arm makes one pass in all: each output block
// is accumulated across every row in registers, one VGF2P8AFFINEQB per row
// and 32-byte YMM or 64-byte ZMM lane, and stored once. The per-coefficient
// acceleration state — the 32-byte nibble product tables and the 8x8 affine
// bit matrices — is precomputed for all 256 coefficients at package init
// (10 KiB total), so a combine touches no scalar multiplication tables at
// all.
//
// Both arms must produce byte-identical output to the portable kernel and
// the byte-wise reference; FuzzKernelEquivalence crosses all of them.

// Per-coefficient acceleration tables, filled at init from mulTable.
var (
	// nibTab[c] is the PSHUFB table pair for multiply-by-c:
	// nibTab[c][x] = c*x and nibTab[c][16+x] = c*(x<<4) for x in 0..15.
	nibTab [256][32]byte
	// gfniMat[c] is the bit matrix of the GF(2)-linear map x -> c*x,
	// packed for VGF2P8AFFINEQB: result bit j is the parity of
	// (matrix byte 7-j) AND x, so byte 7-j holds bit j of c*2^i at bit i.
	gfniMat [256]uint64
)

func init() {
	initBaseTables()
	for c := 0; c < 256; c++ {
		row := &mulTable[c]
		t := &nibTab[c]
		for x := 0; x < 16; x++ {
			t[x] = row[x]
			t[16+x] = row[x<<4]
		}
		var q uint64
		for j := 0; j < 8; j++ {
			var bits byte
			for i := 0; i < 8; i++ {
				if row[1<<i]>>uint(j)&1 != 0 {
					bits |= 1 << uint(i)
				}
			}
			q |= uint64(bits) << uint(8*(7-j))
		}
		gfniMat[c] = q
	}
}

// The accelerated arms. pshufb is one name with two bodies: archArms offers
// the 32-byte AVX2 form when the CPU has it and the 16-byte SSSE3 form
// otherwise.
var (
	gfniArm       = arm{name: KernelGFNI, mul: gfniMul, mulAdd: gfniMulAdd}
	pshufbWideArm = arm{name: KernelPSHUFB, mul: pshufbMulWide, mulAdd: pshufbMulAddWide, mulAdd2: pshufbMulAdd2Wide}
	pshufbArm     = arm{name: KernelPSHUFB, mul: pshufbMul, mulAdd: pshufbMulAdd}
)

// archArms returns the accelerated arms this CPU supports, best-first.
func archArms() []*arm {
	var as []*arm
	if cpufeat.X86.GFNI {
		as = append(as, &gfniArm)
	}
	switch {
	case cpufeat.X86.AVX2:
		as = append(as, &pshufbWideArm)
	case cpufeat.X86.SSSE3:
		as = append(as, &pshufbArm)
	}
	return as
}

func newArchImpl(a *arm) kernelImpl { return &simdKernel{arm: a} }

// simdKernel implements kernelImpl: on the gfni arm as the one-pass body
// (gfniCombine), on the pshufb arm as one pass of its single-row pair per
// nonzero coefficient. setRows only snapshots the rows (the per-coefficient
// tables are global), so SetRows is far cheaper than the portable kernel's
// subset-table build. The snapshot starts every row on a 64-byte boundary:
// a vector load then never straddles two cache lines (CombineMany of 32 ×
// 32 × 1500 B on the one-pass ZMM body: 22.2 µs with rows packed at a
// 1500-byte stride, 15.4–18.3 µs aligned).
type simdKernel struct {
	*arm
	size int
	flat []byte   // row snapshot backing store
	rows [][]byte // views into flat
	sel  []int32  // scratch: indices of nonzero coefficients
	// The gfni arm's one-pass scratch: the nonzero rows, in row order.
	nonzero []gfniRow
}

// gfniRow is one source of the one-pass combine: the row's first byte and
// its coefficient's bit matrix, as the assembly body reads them.
type gfniRow struct {
	src *byte
	mat uint64
}

func (kn *simdKernel) setRows(rows [][]byte) {
	size := len(rows[0])
	kn.size = size
	stride := (size + 63) &^ 63
	need := len(rows) * stride
	if cap(kn.flat) < need {
		kn.flat = aligned64(need)
	}
	kn.flat = kn.flat[:need]
	if cap(kn.rows) < len(rows) {
		kn.rows = make([][]byte, len(rows))
	}
	kn.rows = kn.rows[:len(rows)]
	for i, r := range rows {
		kn.rows[i] = kn.flat[i*stride : i*stride+size : i*stride+size]
		copy(kn.rows[i], r)
	}
}

// aligned64 returns n > 0 zero bytes starting on a 64-byte boundary. An
// allocation of a multiple of 64 bytes from 1 KiB up is one already (every
// size class there is a multiple of 64, and larger objects start on a
// page), so only other shapes pay 63 bytes of slack.
func aligned64(n int) []byte {
	b := make([]byte, n)
	if uintptr(unsafe.Pointer(&b[0]))&63 == 0 {
		return b
	}
	b = make([]byte, n+63)
	off := -int(uintptr(unsafe.Pointer(&b[0]))) & 63
	return b[off : off+n]
}

func (kn *simdKernel) combine(dst, coeffs []byte) {
	kn.combineInto(dst, kn.rows, coeffs)
}

func (kn *simdKernel) combineMany(dsts [][]byte, coeffs [][]byte) {
	for p := range dsts {
		kn.combineInto(dsts[p], kn.rows, coeffs[p])
	}
}

func (kn *simdKernel) combineInto(dst []byte, srcs [][]byte, coeffs []byte) {
	if kn.arm == &gfniArm && len(dst) >= 32 {
		kn.gfniCombine(dst, srcs, coeffs)
		return
	}
	sel := kn.sel[:0]
	for i, c := range coeffs {
		if c != 0 {
			sel = append(sel, int32(i))
		}
	}
	kn.sel = sel
	if len(sel) == 0 {
		clear(dst)
		return
	}
	kn.mul(dst, srcs[sel[0]], coeffs[sel[0]])
	i := 1
	if kn.mulAdd2 != nil {
		for ; i+1 < len(sel); i += 2 {
			a, b := sel[i], sel[i+1]
			kn.mulAdd2(dst, srcs[a], srcs[b], coeffs[a], coeffs[b])
		}
	}
	for ; i < len(sel); i++ {
		kn.mulAdd(dst, srcs[sel[i]], coeffs[sel[i]])
	}
}

// gfniZMM selects the 64-byte ZMM body of the gfni arm's one-pass combine
// over the 32-byte YMM one. It holds where the CPU has AVX-512F/BW with the
// ZMM state enabled; the tests switch it to run both widths on such a host.
var gfniZMM = cpufeat.X86.AVX512BW

// gfniCombine is combineInto on the gfni arm for rows of at least one YMM
// block: one assembly call accumulates every nonzero row into each output
// block in registers and stores the block once. A row length that is not a
// whole number of blocks is finished by one more pass over the last whole
// block of the row, into a block on the stack whose final bytes are the
// tail. The row list is the kernel's scratch, made once at its full
// length, and is cleared afterwards so it keeps no payload alive.
func (kn *simdKernel) gfniCombine(dst []byte, srcs [][]byte, coeffs []byte) {
	if cap(kn.nonzero) < len(coeffs) {
		kn.nonzero = make([]gfniRow, 0, len(coeffs))
	}
	rows := kn.nonzero[:0]
	for i, c := range coeffs {
		if c != 0 {
			rows = append(rows, gfniRow{&srcs[i][0], gfniMat[c]})
		}
	}
	if len(rows) == 0 {
		clear(dst)
		return
	}
	w := 32
	if gfniZMM && len(dst) >= 64 {
		w = 64
	}
	n := len(dst) &^ (w - 1)
	gfniCombineBody(w, &dst[0], n, rows, 0)
	if t := len(dst) - n; t > 0 {
		var blk [64]byte
		gfniCombineBody(w, &blk[0], w, rows, len(dst)-w)
		copy(dst[n:], blk[w-t:w])
	}
	clear(rows)
}

// gfniCombineBody runs the w-byte body. The call is direct, not through a
// function value, so the stack block stays on the stack.
func gfniCombineBody(w int, dst *byte, n int, rows []gfniRow, off int) {
	if w == 64 {
		gfniCombineZMM(dst, n, &rows[0], len(rows), off)
	} else {
		gfniCombineYMM(dst, n, &rows[0], len(rows), off)
	}
}

// Assembly primitives (kernel_amd64.s). n must be a positive multiple of
// the form's block size; the wrappers below pad a shorter tail up to one.
// dst may equal src: every body loads its whole block (16, 32 or 64 bytes)
// of src before the first store to dst, and a store never reaches past the
// block just loaded. Any other overlap is undefined.

//go:noescape
func gfMulSSSE3(dst, src *byte, n int, tab *byte)

//go:noescape
func gfMulAddSSSE3(dst, src *byte, n int, tab *byte)

//go:noescape
func gfMulAVX2(dst, src *byte, n int, tab *byte)

//go:noescape
func gfMulAddAVX2(dst, src *byte, n int, tab *byte)

//go:noescape
func gfMulAdd2AVX2(dst, a, b *byte, n int, tabA, tabB *byte)

//go:noescape
func gfMulGFNI(dst, src *byte, n int, mat uint64)

//go:noescape
func gfMulAddGFNI(dst, src *byte, n int, mat uint64)

// gfniCombineYMM and gfniCombineZMM set dst[j] = Σ rows[r].mat·rows[r].src[off+j]
// for j < n over nrows ≥ 1 rows; n is a multiple of their block, 32 or 64.
//
//go:noescape
func gfniCombineYMM(dst *byte, n int, rows *gfniRow, nrows, off int)

//go:noescape
func gfniCombineZMM(dst *byte, n int, rows *gfniRow, nrows, off int)

// The Go-side wrappers run the vector body over the block-aligned prefix
// and then once more for the tail, on zero-padded blocks on the stack:
// 0*c = 0, so the padding is inert. (A 1500-byte row is 1472 + 28: the
// byte-wise loop over those 28 cost 60 % of what the body did over the 1472.)
//
//   - A multiply stages the source tail at the front of a block, multiplies
//     the block in place and copies the tail's bytes out.
//   - A multiply-accumulate re-runs the body over the last whole block of
//     dst, in place, against a source block that is zero wherever the prefix
//     pass has already been: those bytes are XORed with 0. Only a dst shorter
//     than one block is staged too.
//
// The source tail is copied out before any destination byte of the tail is
// written, so dst == src stays safe. Zero and one need no special case: the
// all-zero and identity tables and matrices are exact.

// padN returns b (shorter than a block) at the front of a zero block, tailN
// the last t bytes of b at the end of one.
func pad16(b []byte) (blk [16]byte)         { copy(blk[:], b); return }
func pad32(b []byte) (blk [32]byte)         { copy(blk[:], b); return }
func tail16(b []byte, t int) (blk [16]byte) { copy(blk[16-t:], b[len(b)-t:]); return }
func tail32(b []byte, t int) (blk [32]byte) { copy(blk[32-t:], b[len(b)-t:]); return }

func pshufbMul(dst, src []byte, c byte) {
	n := len(dst) &^ 15
	if n > 0 {
		gfMulSSSE3(&dst[0], &src[0], n, &nibTab[c][0])
	}
	if n < len(dst) {
		s := pad16(src[n:])
		gfMulSSSE3(&s[0], &s[0], 16, &nibTab[c][0])
		copy(dst[n:], s[:])
	}
}

func pshufbMulAdd(dst, src []byte, c byte) {
	n := len(dst) &^ 15
	if n == 0 {
		if len(dst) > 0 {
			d, s := pad16(dst), pad16(src)
			gfMulAddSSSE3(&d[0], &s[0], 16, &nibTab[c][0])
			copy(dst, d[:])
		}
		return
	}
	gfMulAddSSSE3(&dst[0], &src[0], n, &nibTab[c][0])
	if t := len(dst) - n; t > 0 {
		s := tail16(src, t)
		gfMulAddSSSE3(&dst[len(dst)-16], &s[0], 16, &nibTab[c][0])
	}
}

func pshufbMulWide(dst, src []byte, c byte) {
	n := len(dst) &^ 31
	if n > 0 {
		gfMulAVX2(&dst[0], &src[0], n, &nibTab[c][0])
	}
	if n < len(dst) {
		s := pad32(src[n:])
		gfMulAVX2(&s[0], &s[0], 32, &nibTab[c][0])
		copy(dst[n:], s[:])
	}
}

func pshufbMulAddWide(dst, src []byte, c byte) {
	n := len(dst) &^ 31
	if n == 0 {
		if len(dst) > 0 {
			d, s := pad32(dst), pad32(src)
			gfMulAddAVX2(&d[0], &s[0], 32, &nibTab[c][0])
			copy(dst, d[:])
		}
		return
	}
	gfMulAddAVX2(&dst[0], &src[0], n, &nibTab[c][0])
	if t := len(dst) - n; t > 0 {
		s := tail32(src, t)
		gfMulAddAVX2(&dst[len(dst)-32], &s[0], 32, &nibTab[c][0])
	}
}

func pshufbMulAdd2Wide(dst, a, b []byte, c1, c2 byte) {
	n := len(dst) &^ 31
	if n == 0 {
		if len(dst) > 0 {
			d, sa, sb := pad32(dst), pad32(a), pad32(b)
			gfMulAdd2AVX2(&d[0], &sa[0], &sb[0], 32, &nibTab[c1][0], &nibTab[c2][0])
			copy(dst, d[:])
		}
		return
	}
	gfMulAdd2AVX2(&dst[0], &a[0], &b[0], n, &nibTab[c1][0], &nibTab[c2][0])
	if t := len(dst) - n; t > 0 {
		sa, sb := tail32(a, t), tail32(b, t)
		gfMulAdd2AVX2(&dst[len(dst)-32], &sa[0], &sb[0], 32, &nibTab[c1][0], &nibTab[c2][0])
	}
}

func gfniMul(dst, src []byte, c byte) {
	n := len(dst) &^ 31
	if n > 0 {
		gfMulGFNI(&dst[0], &src[0], n, gfniMat[c])
	}
	if n < len(dst) {
		s := pad32(src[n:])
		gfMulGFNI(&s[0], &s[0], 32, gfniMat[c])
		copy(dst[n:], s[:])
	}
}

func gfniMulAdd(dst, src []byte, c byte) {
	n := len(dst) &^ 31
	if n == 0 {
		if len(dst) > 0 {
			d, s := pad32(dst), pad32(src)
			gfMulAddGFNI(&d[0], &s[0], 32, gfniMat[c])
			copy(dst, d[:])
		}
		return
	}
	gfMulAddGFNI(&dst[0], &src[0], n, gfniMat[c])
	if t := len(dst) - n; t > 0 {
		s := tail32(src, t)
		gfMulAddGFNI(&dst[len(dst)-32], &s[0], 32, gfniMat[c])
	}
}
