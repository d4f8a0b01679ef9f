// amd64 constant-multiply primitives for the SIMD kernel arms
// (kernel_simd_amd64.go), and at the end the gfni arm's one-pass
// multi-row combine. Each primitive applies one GF(2^8)
// multiply-by-constant to a whole slice:
//
//	gfMul*   : dst[i]  = c * src[i]
//	gfMulAdd*: dst[i] ^= c * src[i]
//
// The constant is passed pre-expanded: the PSHUFB forms take a 32-byte
// nibble table (lo[16] = c*x, hi[16] = c*(x<<4); the product of a byte is
// the XOR of its two nibble products, multiplication being linear over
// GF(2)), and the GFNI forms take the 8x8 bit matrix of the linear map
// x -> c*x packed in a qword, applied by VGF2P8AFFINEQB (which, unlike
// GF2P8MULB's hardwired 0x11B polynomial, works for our 0x11D field).
//
// Callers guarantee: n > 0, n is a multiple of the form's block size
// (16 for SSSE3, 32 for AVX2/GFNI), and dst is either src exactly or
// disjoint from it. Exact aliasing is safe because every loop iteration
// loads its whole block of src (16 bytes; 32 or 64 in the AVX2/GFNI loop64
// bodies) before its first store to dst, and stores only that block.
// Tails are handled in Go.
//
// The AVX2 and GFNI bodies are VEX-encoded throughout, constant set-up
// included (VMOVQ, not MOVQ, into an X register): one legacy-SSE write to
// an XMM register while the upper YMM halves are dirty stalls on the
// SSE/AVX state transition, which cost every call ~100 ns on the Xeon this
// was measured on — more than a 1500-byte pass itself (PERFORMANCE.md,
// PR 16).

#include "textflag.h"

// func gfMulSSSE3(dst, src *byte, n int, tab *byte)
TEXT ·gfMulSSSE3(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), DX
	MOVOU (DX), X0            // lo-nibble product table
	MOVOU 16(DX), X1          // hi-nibble product table
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X2
	PSHUFD $0x44, X2, X2      // broadcast nibble mask to both qwords

loop:
	MOVOU (SI), X3
	MOVO  X3, X4
	PSRLQ $4, X4
	PAND  X2, X3              // low nibbles
	PAND  X2, X4              // high nibbles
	MOVO  X0, X5
	MOVO  X1, X6
	PSHUFB X3, X5             // c * low nibble
	PSHUFB X4, X6             // c * (high nibble << 4)
	PXOR  X6, X5
	MOVOU X5, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $16, CX
	JNE  loop
	RET

// func gfMulAddSSSE3(dst, src *byte, n int, tab *byte)
TEXT ·gfMulAddSSSE3(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), DX
	MOVOU (DX), X0
	MOVOU 16(DX), X1
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X2
	PSHUFD $0x44, X2, X2

loop:
	MOVOU (SI), X3
	MOVO  X3, X4
	PSRLQ $4, X4
	PAND  X2, X3
	PAND  X2, X4
	MOVO  X0, X5
	MOVO  X1, X6
	PSHUFB X3, X5
	PSHUFB X4, X6
	PXOR  X6, X5
	MOVOU (DI), X7
	PXOR  X7, X5
	MOVOU X5, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $16, CX
	JNE  loop
	RET

// func gfMulAVX2(dst, src *byte, n int, tab *byte)
TEXT ·gfMulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), DX
	VBROADCASTI128 (DX), Y0   // lo table in both 128-bit lanes
	VBROADCASTI128 16(DX), Y1 // hi table (VPSHUFB shuffles per lane)
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2
	CMPQ CX, $64
	JB   tail32

loop64:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y8
	VPSRLQ $4, Y3, Y4
	VPSRLQ $4, Y8, Y9
	VPAND Y2, Y3, Y3
	VPAND Y2, Y4, Y4
	VPAND Y2, Y8, Y8
	VPAND Y2, Y9, Y9
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPSHUFB Y8, Y0, Y10
	VPSHUFB Y9, Y1, Y11
	VPXOR Y6, Y5, Y5
	VPXOR Y11, Y10, Y10
	VMOVDQU Y5, (DI)
	VMOVDQU Y10, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  loop64

tail32:
	TESTQ CX, CX
	JZ   done
	VMOVDQU (SI), Y3
	VPSRLQ $4, Y3, Y4
	VPAND Y2, Y3, Y3
	VPAND Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPXOR Y6, Y5, Y5
	VMOVDQU Y5, (DI)

done:
	VZEROUPPER
	RET

// func gfMulAddAVX2(dst, src *byte, n int, tab *byte)
TEXT ·gfMulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), DX
	VBROADCASTI128 (DX), Y0
	VBROADCASTI128 16(DX), Y1
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2
	CMPQ CX, $64
	JB   tail32

loop64:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y8
	VPSRLQ $4, Y3, Y4
	VPSRLQ $4, Y8, Y9
	VPAND Y2, Y3, Y3
	VPAND Y2, Y4, Y4
	VPAND Y2, Y8, Y8
	VPAND Y2, Y9, Y9
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPSHUFB Y8, Y0, Y10
	VPSHUFB Y9, Y1, Y11
	VPXOR Y6, Y5, Y5
	VPXOR Y11, Y10, Y10
	VPXOR (DI), Y5, Y5
	VPXOR 32(DI), Y10, Y10
	VMOVDQU Y5, (DI)
	VMOVDQU Y10, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  loop64

tail32:
	TESTQ CX, CX
	JZ   done
	VMOVDQU (SI), Y3
	VPSRLQ $4, Y3, Y4
	VPAND Y2, Y3, Y3
	VPAND Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPXOR Y6, Y5, Y5
	VPXOR (DI), Y5, Y5
	VMOVDQU Y5, (DI)

done:
	VZEROUPPER
	RET

// func gfMulGFNI(dst, src *byte, n int, mat uint64)
TEXT ·gfMulGFNI(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ mat+24(FP), AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0       // multiply-by-c bit matrix in every qword
	CMPQ CX, $64
	JB   tail32

loop64:
	VMOVDQU (SI), Y1
	VMOVDQU 32(SI), Y2
	VGF2P8AFFINEQB $0, Y0, Y1, Y1
	VGF2P8AFFINEQB $0, Y0, Y2, Y2
	VMOVDQU Y1, (DI)
	VMOVDQU Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  loop64

tail32:
	TESTQ CX, CX
	JZ   done
	VMOVDQU (SI), Y1
	VGF2P8AFFINEQB $0, Y0, Y1, Y1
	VMOVDQU Y1, (DI)

done:
	VZEROUPPER
	RET

// func gfMulAddGFNI(dst, src *byte, n int, mat uint64)
TEXT ·gfMulAddGFNI(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ mat+24(FP), AX
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0
	CMPQ CX, $64
	JB   tail32

loop64:
	VMOVDQU (SI), Y1
	VMOVDQU 32(SI), Y2
	VGF2P8AFFINEQB $0, Y0, Y1, Y1
	VGF2P8AFFINEQB $0, Y0, Y2, Y2
	VPXOR (DI), Y1, Y1
	VPXOR 32(DI), Y2, Y2
	VMOVDQU Y1, (DI)
	VMOVDQU Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  loop64

tail32:
	TESTQ CX, CX
	JZ   done
	VMOVDQU (SI), Y1
	VGF2P8AFFINEQB $0, Y0, Y1, Y1
	VPXOR (DI), Y1, Y1
	VMOVDQU Y1, (DI)

done:
	VZEROUPPER
	RET

// func gfMulAdd2AVX2(dst, a, b *byte, n int, tabA, tabB *byte)
// dst[i] ^= cA*a[i] ^ cB*b[i]: two fused multiply-accumulate streams per
// pass, halving the dst load/store traffic of two gfMulAddAVX2 calls.
TEXT ·gfMulAdd2AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ tabA+32(FP), DX
	MOVQ tabB+40(FP), R8
	VBROADCASTI128 (DX), Y0
	VBROADCASTI128 16(DX), Y1
	VBROADCASTI128 (R8), Y12
	VBROADCASTI128 16(R8), Y13
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	VMOVQ AX, X2
	VPBROADCASTQ X2, Y2

loop:
	VMOVDQU (SI), Y3
	VMOVDQU (BX), Y8
	VPSRLQ $4, Y3, Y4
	VPSRLQ $4, Y8, Y9
	VPAND Y2, Y3, Y3
	VPAND Y2, Y4, Y4
	VPAND Y2, Y8, Y8
	VPAND Y2, Y9, Y9
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPSHUFB Y8, Y12, Y10
	VPSHUFB Y9, Y13, Y11
	VPXOR Y6, Y5, Y5
	VPXOR Y11, Y10, Y10
	VPXOR Y10, Y5, Y5
	VPXOR (DI), Y5, Y5
	VMOVDQU Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $32, CX
	JNE  loop
	VZEROUPPER
	RET

// func gfniCombineYMM(dst *byte, n int, rows *gfniRow, nrows, off int)
// func gfniCombineZMM(dst *byte, n int, rows *gfniRow, nrows, off int)
//
// The one-pass multi-row combine of the GFNI arm, over a list of (source
// pointer, bit matrix) pairs of 16 bytes each:
//
//	dst[j] = XOR over r < nrows of rows[r].mat applied to rows[r].src[off+j],  0 <= j < n
//
// Each output block is accumulated in registers across all rows and stored
// once, so dst is written n bytes in total and never read, whatever the row
// count. Four blocks (128 bytes in YMM, 256 in ZMM) share one load of each
// row's pointer and matrix; what is left runs one block at a time. The first
// row sets the accumulators, so nrows >= 1. n is a positive multiple of the
// block (32 or 64 bytes) and dst overlaps no source. The ZMM body is
// EVEX-encoded (AVX-512F/BW with GFNI) and ends in VZEROUPPER like the VEX
// ones.
TEXT ·gfniCombineYMM(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ rows+16(FP), SI
	MOVQ nrows+24(FP), R8
	SHLQ $4, R8
	ADDQ SI, R8               // end of the row list
	MOVQ off+32(FP), R9
	CMPQ CX, $128
	JB   one

four:
	MOVQ (SI), AX
	ADDQ R9, AX
	VPBROADCASTQ 8(SI), Y4
	VMOVDQU (AX), Y0
	VMOVDQU 32(AX), Y1
	VMOVDQU 64(AX), Y2
	VMOVDQU 96(AX), Y3
	VGF2P8AFFINEQB $0, Y4, Y0, Y0
	VGF2P8AFFINEQB $0, Y4, Y1, Y1
	VGF2P8AFFINEQB $0, Y4, Y2, Y2
	VGF2P8AFFINEQB $0, Y4, Y3, Y3
	LEAQ 16(SI), BX
	CMPQ BX, R8
	JAE  fourStore

fourRow:
	MOVQ (BX), AX
	ADDQ R9, AX
	VPBROADCASTQ 8(BX), Y4
	VMOVDQU (AX), Y5
	VMOVDQU 32(AX), Y6
	VMOVDQU 64(AX), Y7
	VMOVDQU 96(AX), Y8
	VGF2P8AFFINEQB $0, Y4, Y5, Y5
	VGF2P8AFFINEQB $0, Y4, Y6, Y6
	VGF2P8AFFINEQB $0, Y4, Y7, Y7
	VGF2P8AFFINEQB $0, Y4, Y8, Y8
	VPXOR Y5, Y0, Y0
	VPXOR Y6, Y1, Y1
	VPXOR Y7, Y2, Y2
	VPXOR Y8, Y3, Y3
	ADDQ $16, BX
	CMPQ BX, R8
	JB   fourRow

fourStore:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R9
	SUBQ $128, CX
	CMPQ CX, $128
	JAE  four

one:
	TESTQ CX, CX
	JZ   done

oneBlock:
	MOVQ (SI), AX
	ADDQ R9, AX
	VPBROADCASTQ 8(SI), Y4
	VMOVDQU (AX), Y0
	VGF2P8AFFINEQB $0, Y4, Y0, Y0
	LEAQ 16(SI), BX
	CMPQ BX, R8
	JAE  oneStore

oneRow:
	MOVQ (BX), AX
	ADDQ R9, AX
	VPBROADCASTQ 8(BX), Y4
	VMOVDQU (AX), Y5
	VGF2P8AFFINEQB $0, Y4, Y5, Y5
	VPXOR Y5, Y0, Y0
	ADDQ $16, BX
	CMPQ BX, R8
	JB   oneRow

oneStore:
	VMOVDQU Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R9
	SUBQ $32, CX
	JNE  oneBlock

done:
	VZEROUPPER
	RET

TEXT ·gfniCombineZMM(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ rows+16(FP), SI
	MOVQ nrows+24(FP), R8
	SHLQ $4, R8
	ADDQ SI, R8               // end of the row list
	MOVQ off+32(FP), R9
	CMPQ CX, $256
	JB   one

four:
	MOVQ (SI), AX
	ADDQ R9, AX
	VPBROADCASTQ 8(SI), Z4
	VMOVDQU64 (AX), Z0
	VMOVDQU64 64(AX), Z1
	VMOVDQU64 128(AX), Z2
	VMOVDQU64 192(AX), Z3
	VGF2P8AFFINEQB $0, Z4, Z0, Z0
	VGF2P8AFFINEQB $0, Z4, Z1, Z1
	VGF2P8AFFINEQB $0, Z4, Z2, Z2
	VGF2P8AFFINEQB $0, Z4, Z3, Z3
	LEAQ 16(SI), BX
	CMPQ BX, R8
	JAE  fourStore

fourRow:
	MOVQ (BX), AX
	ADDQ R9, AX
	VPBROADCASTQ 8(BX), Z4
	VMOVDQU64 (AX), Z5
	VMOVDQU64 64(AX), Z6
	VMOVDQU64 128(AX), Z7
	VMOVDQU64 192(AX), Z8
	VGF2P8AFFINEQB $0, Z4, Z5, Z5
	VGF2P8AFFINEQB $0, Z4, Z6, Z6
	VGF2P8AFFINEQB $0, Z4, Z7, Z7
	VGF2P8AFFINEQB $0, Z4, Z8, Z8
	VPXORQ Z5, Z0, Z0
	VPXORQ Z6, Z1, Z1
	VPXORQ Z7, Z2, Z2
	VPXORQ Z8, Z3, Z3
	ADDQ $16, BX
	CMPQ BX, R8
	JB   fourRow

fourStore:
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, R9
	SUBQ $256, CX
	CMPQ CX, $256
	JAE  four

one:
	TESTQ CX, CX
	JZ   done

oneBlock:
	MOVQ (SI), AX
	ADDQ R9, AX
	VMOVDQU64 (AX), Z0
	VGF2P8AFFINEQB.BCST $0, 8(SI), Z0, Z0
	LEAQ 16(SI), BX
	CMPQ BX, R8
	JAE  oneStore

oneRow:
	MOVQ (BX), AX
	ADDQ R9, AX
	VMOVDQU64 (AX), Z5
	VGF2P8AFFINEQB.BCST $0, 8(BX), Z5, Z5
	VPXORQ Z5, Z0, Z0
	ADDQ $16, BX
	CMPQ BX, R8
	JB   oneRow

oneStore:
	VMOVDQU64 Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, R9
	SUBQ $64, CX
	JNE  oneBlock

done:
	VZEROUPPER
	RET
