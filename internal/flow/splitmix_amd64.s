// AVX-512 bodies of the file generator (splitmix_amd64.go): eight
// SplitMix64 lanes per 64-byte block. Lane l of a block holds word 8b+l of
// the stream started at state, mix(state + (8b+l+1)·golden), so a block is
// exactly the 64 bytes the scalar loop writes there. mix is
//
//	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
//	z = (z ^ z>>27) * 0x94D049BB133111EB
//	z ^ z>>31
//
// on every lane, VPMULLQ (AVX-512DQ) being the 64-bit lane multiply. The
// loop runs two blocks per iteration, whose multiply chains overlap, and a
// last single block when blocks is odd. blocks > 0.

#include "textflag.h"

// laneSteps<>: (l+1)·golden for lanes l = 0..7, mod 2^64.
DATA laneSteps<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA laneSteps<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA laneSteps<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA laneSteps<>+24(SB)/8, $0x78dde6e5fd29f054
DATA laneSteps<>+32(SB)/8, $0x1715609f7c746c69
DATA laneSteps<>+40(SB)/8, $0xb54cda58fbbee87e
DATA laneSteps<>+48(SB)/8, $0x538454127b096493
DATA laneSteps<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL laneSteps<>(SB), RODATA|NOPTR, $64

// SETUP loads the lane states of block 0 (state in AX) into Z0, the step
// to the block after next (16·golden) into Z1, the states of block 1 (Z0
// plus 8·golden) into Z8, and the two multipliers into Z2 and Z3.
#define SETUP \
	VPBROADCASTQ AX, Z0 \
	VPADDQ laneSteps<>(SB), Z0, Z0 \
	MOVQ $0xe3779b97f4a7c150, AX \
	VPBROADCASTQ AX, Z1 \
	MOVQ $0xf1bbcdcbfa53e0a8, AX \
	VPBROADCASTQ AX, Z8 \
	VPADDQ Z8, Z0, Z8 \
	MOVQ $0xBF58476D1CE4E5B9, AX \
	VPBROADCASTQ AX, Z2 \
	MOVQ $0x94D049BB133111EB, AX \
	VPBROADCASTQ AX, Z3

// MIX sets out = mix(in), with tmp as scratch.
#define MIX(in, out, tmp) \
	VPSRLQ $30, in, tmp \
	VPXORQ in, tmp, out \
	VPMULLQ Z2, out, out \
	VPSRLQ $27, out, tmp \
	VPXORQ tmp, out, out \
	VPMULLQ Z3, out, out \
	VPSRLQ $31, out, tmp \
	VPXORQ tmp, out, out

// func splitmixFill(state uint64, dst *byte, blocks int)
TEXT ·splitmixFill(SB), NOSPLIT, $0-24
	MOVQ state+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ blocks+16(FP), CX
	SETUP
	CMPQ CX, $2
	JB   last

pair:
	MIX(Z0, Z4, Z5)
	MIX(Z8, Z6, Z7)
	VMOVDQU64 Z4, (DI)
	VMOVDQU64 Z6, 64(DI)
	VPADDQ Z1, Z0, Z0
	VPADDQ Z1, Z8, Z8
	ADDQ $128, DI
	SUBQ $2, CX
	CMPQ CX, $2
	JAE  pair

last:
	TESTQ CX, CX
	JZ   done
	MIX(Z0, Z4, Z5)
	VMOVDQU64 Z4, (DI)

done:
	VZEROUPPER
	RET

// func splitmixMatch(state uint64, src *byte, blocks int) bool
// It XORs every generated block with src, ORs the differences together and
// reports whether they are all zero: every byte is compared, none skipped.
TEXT ·splitmixMatch(SB), NOSPLIT, $0-25
	MOVQ state+0(FP), AX
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX
	SETUP
	VPXORQ Z9, Z9, Z9
	CMPQ CX, $2
	JB   last

pair:
	MIX(Z0, Z4, Z5)
	MIX(Z8, Z6, Z7)
	VPXORQ (SI), Z4, Z4
	VPXORQ 64(SI), Z6, Z6
	VPTERNLOGQ $0xFE, Z4, Z6, Z9 // Z9 |= Z4 | Z6
	VPADDQ Z1, Z0, Z0
	VPADDQ Z1, Z8, Z8
	ADDQ $128, SI
	SUBQ $2, CX
	CMPQ CX, $2
	JAE  pair

last:
	TESTQ CX, CX
	JZ   done
	MIX(Z0, Z4, Z5)
	VPXORQ (SI), Z4, Z4
	VPORQ Z4, Z9, Z9

done:
	VPTESTMQ Z9, Z9, K1
	KMOVB K1, AX
	TESTB AL, AL
	SETEQ ret+24(FP)
	VZEROUPPER
	RET
