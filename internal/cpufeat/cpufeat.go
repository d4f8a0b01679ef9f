// Package cpufeat reports the x86 instruction-set extensions the SIMD
// bodies of gf256 (the kernel arms) and flow (file fill and verify) are
// written in. It is one detector for both, so they agree on what this CPU
// and its operating system can run. The standard library's internal/cpu is
// not importable and the module takes no external dependencies, so the two
// instructions it needs (CPUID, XGETBV) live in cpufeat_amd64.s.
package cpufeat

// Features is what the CPU offers and the OS has enabled the register
// state for. A vector extension counts only when XCR0 shows its registers
// saved across context switches.
type Features struct {
	SSSE3 bool // PSHUFB
	AVX2  bool // 256-bit integer ops, YMM state enabled
	GFNI  bool // GF2P8AFFINEQB, with AVX2 (VEX form)
	// AVX512BW is AVX-512F and BW with opmask and ZMM state enabled: 64-byte
	// integer lanes, and the EVEX form of GF2P8AFFINEQB where GFNI holds.
	AVX512BW bool
	// AVX512DQ is AVX-512F and DQ with opmask and ZMM state enabled: VPMULLQ,
	// the 64-bit lane multiply.
	AVX512DQ bool
}

// X86 is this machine's features, detected during package variable
// initialization. It is all false off amd64.
var X86 = detect()
