// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// MORE codes packets over GF(2^8) (§4.6(a) of the thesis): every payload
// byte is an element of the field, addition is XOR, and multiplication is
// carried out modulo the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1
// (0x11D). Scalar products use the full 64 KiB multiplication table indexed
// by pairs of bytes, exactly as the paper's implementation does.
//
// There is one multiply path. Each kernel arm (gfni, pshufb, portable,
// reference — kernel.go) has one single-row pair, dst = c·src and
// dst ^= c·src, and everything is built on the active arm's pair: the
// slice operations MulSlice, MulAddSlice and ScaleSlice check lengths, load
// the arm SetKernel published and call it (rows shorter than simdCutoff
// stay on the portable table loop — dispatch.go), and the multi-row Kernel
// combines whole batches with the same pair. The portable arm's pair, kept
// in this file, gathers eight mulTable products into a uint64 per
// iteration; its multi-row form is the bit-plane/nibble-table kernel in
// kernel_generic.go. Every arm is fuzz-tested for byte-exact equivalence
// against the byte-wise reference loops, also kept in this file.
//
// The zero value of the field element type (byte 0) is the additive
// identity; byte 1 is the multiplicative identity.
package gf256

import "encoding/binary"

// Poly is the primitive polynomial used to construct the field,
// x^8 + x^4 + x^3 + x^2 + 1, written with the implicit x^8 term as 0x11D.
const Poly = 0x11D

var (
	// expTable[i] = g^i where g = 2 is a generator of the multiplicative
	// group. It is doubled in length so that Mul can index it without a
	// modular reduction of the exponent sum.
	expTable [510]byte

	// logTable[x] = log_g(x) for x != 0. logTable[0] is unused.
	logTable [256]byte

	// mulTable is the 64 KiB lookup table of all products, indexed as
	// mulTable[a][b] == a*b. This is the table §4.6(a) describes.
	mulTable [256][256]byte

	// invTable[x] = x^-1 for x != 0. invTable[0] is unused.
	invTable [256]byte
)

func init() { initBaseTables() }

// baseTablesBuilt guards initBaseTables: the amd64 SIMD arm derives its
// nibble tables and affine matrices from mulTable inside its own init, so
// it calls initBaseTables first rather than relying on init file order.
var baseTablesBuilt bool

func initBaseTables() {
	if baseTablesBuilt {
		return
	}
	baseTablesBuilt = true
	// Build exp/log tables by repeated multiplication by the generator.
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 510; i++ {
		expTable[i] = expTable[i-255]
	}
	// Dense product and inverse tables.
	for a := 1; a < 256; a++ {
		la := int(logTable[a])
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[la+int(logTable[b])]
		}
		invTable[a] = expTable[255-la]
	}
}

// Add returns a + b in GF(2^8). Addition and subtraction coincide (XOR).
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8); identical to Add because the field has
// characteristic 2.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8) via the precomputed 64 KiB table.
func Mul(a, b byte) byte { return mulTable[a][b] }

// Inv returns the multiplicative inverse of a. It panics if a == 0, which
// has no inverse; callers in the coding layer guarantee nonzero pivots.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// Div returns a / b. It panics if b == 0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Exp returns g^e for the generator g = 2, with e taken modulo 255.
func Exp(e int) byte {
	e %= 255
	if e < 0 {
		e += 255
	}
	return expTable[e]
}

// Log returns log_g(a). It panics if a == 0.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have the
// same length; dst may alias src exactly (but not partially). Rows of
// simdCutoff bytes or more run on the active kernel arm's single-row
// multiply (dispatch.go); shorter ones stay on the table loop.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch {
	case c == 0:
		clear(dst)
	case c == 1:
		copy(dst, src)
	case len(dst) < simdCutoff:
		mulSliceWord(dst, src, c)
	default:
		active.Load().mul(dst, src, c)
	}
}

// MulAddSlice sets dst[i] += c * src[i] for all i, the fused
// multiply-accumulate used when folding one coded packet into another.
// dst and src must have the same length and must not alias unless equal.
// It dispatches exactly as MulSlice does.
func MulAddSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	switch {
	case c == 0:
	case c == 1:
		AddSlice(dst, src)
	case len(dst) < simdCutoff:
		mulAddSliceWord(dst, src, c)
	default:
		active.Load().mulAdd(dst, src, c)
	}
}

// mulSliceWord and mulAddSliceWord are the portable arm's single-row pair.
// Like every arm's pair they take equal-length slices (exactly aliased or
// disjoint) and any c; the length check and the c == 0 / c == 1
// short-circuits live once, in MulSlice/MulAddSlice.
func mulSliceWord(dst, src []byte, c byte)    { tableLoop(dst, src, c, 0) }
func mulAddSliceWord(dst, src []byte, c byte) { tableLoop(dst, src, c, ^uint64(0)) }

// tableLoop sets dst = (dst & keep) ^ c*src: eight mulTable products
// gathered into a uint64 per iteration, byte-wise over the last len%8
// bytes. keep is all-zeros to overwrite and all-ones to accumulate; one
// loop with a mask serves both because the gather, at cost 90, exceeds the
// inliner's budget as a shared helper and a call per 8 bytes costs this
// loop a quarter of its throughput, while the extra load and AND do not
// show (PERFORMANCE.md, PR 16).
func tableLoop(dst, src []byte, c byte, keep uint64) {
	row := &mulTable[c]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		w := binary.LittleEndian.Uint64(src[i:])
		p := uint64(row[w&0xff]) |
			uint64(row[w>>8&0xff])<<8 |
			uint64(row[w>>16&0xff])<<16 |
			uint64(row[w>>24&0xff])<<24 |
			uint64(row[w>>32&0xff])<<32 |
			uint64(row[w>>40&0xff])<<40 |
			uint64(row[w>>48&0xff])<<48 |
			uint64(row[w>>56])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])&keep^p)
	}
	for i := n; i < len(src); i++ {
		dst[i] = dst[i]&byte(keep) ^ row[src[i]]
	}
}

// mulSliceGeneric and mulAddSliceGeneric are the reference arm's pair: one
// table lookup per byte. They are also every other arm's tail loop and the
// oracle all of them are fuzzed against.
func mulSliceGeneric(dst, src []byte, c byte) {
	row := &mulTable[c]
	for i := range src {
		dst[i] = row[src[i]]
	}
}

func mulAddSliceGeneric(dst, src []byte, c byte) {
	row := &mulTable[c]
	for i := range src {
		dst[i] ^= row[src[i]]
	}
}

// AddSlice sets dst[i] += src[i] (XOR) for all i, eight bytes at a time.
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: AddSlice length mismatch")
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// ScaleSlice multiplies every byte of v by c in place.
func ScaleSlice(v []byte, c byte) { MulSlice(v, v, c) }

// DotProduct returns the GF(2^8) inner product of a and b, which must have
// equal lengths. A coded payload byte is the dot product of the code vector
// with the column of native payload bytes at that offset. Unlike the slice
// products, both operands vary per position, so there is no word-wise
// decomposition: this stays one table lookup per byte. Column-major callers
// should use Kernel instead.
func DotProduct(a, b []byte) byte {
	if len(a) != len(b) {
		panic("gf256: DotProduct length mismatch")
	}
	var s byte
	for i := range a {
		s ^= mulTable[a[i]][b[i]]
	}
	return s
}
