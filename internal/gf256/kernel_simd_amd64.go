package gf256

// The amd64 SIMD kernel arms. Where the portable kernel decomposes a
// multi-row combination into bit planes (kernel_generic.go), the SIMD arms
// take the direct route: one constant-multiply-accumulate pass over the
// payload per nonzero coefficient, each pass running 16 bytes (SSSE3
// PSHUFB), 32 bytes (AVX2 VPSHUFB) or 32 bytes at one instruction per lane
// (GFNI VGF2P8AFFINEQB) at a time. The per-coefficient acceleration state —
// the 32-byte nibble product tables and the 8x8 affine bit matrices — is
// precomputed for all 256 coefficients at package init (10 KiB total), so a
// combine touches no scalar multiplication tables at all.
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
	gfniArm       = arm{name: KernelGFNI, mul: gfniMul, mulAdd: gfniMulAdd, mulAdd2: gfniMulAdd2}
	pshufbWideArm = arm{name: KernelPSHUFB, mul: pshufbMulWide, mulAdd: pshufbMulAddWide, mulAdd2: pshufbMulAdd2Wide}
	pshufbArm     = arm{name: KernelPSHUFB, mul: pshufbMul, mulAdd: pshufbMulAdd}
)

// archArms returns the accelerated arms this CPU supports, best-first.
func archArms() []*arm {
	var as []*arm
	if cpuFeat.gfni {
		as = append(as, &gfniArm)
	}
	switch {
	case cpuFeat.avx2:
		as = append(as, &pshufbWideArm)
	case cpuFeat.ssse3:
		as = append(as, &pshufbArm)
	}
	return as
}

func newArchImpl(a *arm) kernelImpl { return &simdKernel{arm: a} }

// simdKernel implements kernelImpl as one constant-multiply pass of its
// arm's single-row pair per nonzero coefficient. setRows only snapshots the
// rows (the per-coefficient tables are global), so SetRows is far cheaper
// than the portable kernel's subset-table build.
type simdKernel struct {
	*arm
	size int
	flat []byte   // row snapshot backing store
	rows [][]byte // views into flat
	sel  []int32  // scratch: indices of nonzero coefficients
}

func (kn *simdKernel) setRows(rows [][]byte) {
	size := len(rows[0])
	kn.size = size
	need := len(rows) * size
	if cap(kn.flat) < need {
		kn.flat = make([]byte, need)
	}
	kn.flat = kn.flat[:need]
	if cap(kn.rows) < len(rows) {
		kn.rows = make([][]byte, len(rows))
	}
	kn.rows = kn.rows[:len(rows)]
	for i, r := range rows {
		kn.rows[i] = kn.flat[i*size : (i+1)*size]
		copy(kn.rows[i], r)
	}
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

//go:noescape
func gfMulAdd2GFNI(dst, a, b *byte, n int, matA, matB uint64)

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

func gfniMulAdd2(dst, a, b []byte, c1, c2 byte) {
	n := len(dst) &^ 31
	if n == 0 {
		if len(dst) > 0 {
			d, sa, sb := pad32(dst), pad32(a), pad32(b)
			gfMulAdd2GFNI(&d[0], &sa[0], &sb[0], 32, gfniMat[c1], gfniMat[c2])
			copy(dst, d[:])
		}
		return
	}
	gfMulAdd2GFNI(&dst[0], &a[0], &b[0], n, gfniMat[c1], gfniMat[c2])
	if t := len(dst) - n; t > 0 {
		sa, sb := tail32(a, t), tail32(b, t)
		gfMulAdd2GFNI(&dst[len(dst)-32], &sa[0], &sb[0], 32, gfniMat[c1], gfniMat[c2])
	}
}
