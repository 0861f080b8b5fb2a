#include "go_asm.h"
#include "textflag.h"

// The AVX2 conversion kernel: the Color Conversion Unit's arithmetic
// (internal/lut, §4.3) on 8 pixels at once, one to each 32-bit element
// of a YMM register, from the unit's own ROM (ccuVec). Every value it
// holds is a non-negative int32 except a and b before their clamp, and
// every step is exact: it writes lut.Codes(·, 8)'s words on every input.
// Every instruction is VEX-encoded.

// fAt's clamp of t to 1 in Q0.16, and the largest 8-bit code.
DATA ccuOne<>+0(SB)/4, $0x10000
GLOBL ccuOne<>(SB), RODATA|NOPTR, $4
DATA ccuTop<>+0(SB)/4, $255
GLOBL ccuTop<>(SB), RODATA|NOPTR, $4

// A Q0.16 t ≥ 1 with float exponent e (biased) lies in octave
// 142 − e; the octaves past the last segment take the last, 7.
DATA ccuSegE<>+0(SB)/4, $142
GLOBL ccuSegE<>(SB), RODATA|NOPTR, $4
DATA ccuSegLast<>+0(SB)/4, $7
GLOBL ccuSegLast<>(SB), RODATA|NOPTR, $4

// 255·lQ = 255·116·fy − 255·16·2^16, and ⌊x/100⌋ = x·0x51EB851F >> 37
// for every x below 2^32.
DATA ccuL116<>+0(SB)/4, $29580
GLOBL ccuL116<>(SB), RODATA|NOPTR, $4
DATA ccuL16<>+0(SB)/4, $267386880
GLOBL ccuL16<>(SB), RODATA|NOPTR, $4
DATA ccuDiv100<>+0(SB)/4, $0x51eb851f
GLOBL ccuDiv100<>(SB), RODATA|NOPTR, $4

// Half a code in Q0.16, the a and b scales, and their offset of 128
// codes plus half a code.
DATA ccuHalf<>+0(SB)/4, $0x8000
GLOBL ccuHalf<>(SB), RODATA|NOPTR, $4
DATA ccuA500<>+0(SB)/4, $500
GLOBL ccuA500<>(SB), RODATA|NOPTR, $4
DATA ccuB200<>+0(SB)/4, $200
GLOBL ccuB200<>(SB), RODATA|NOPTR, $4
DATA ccuAB<>+0(SB)/4, $0x808000
GLOBL ccuAB<>(SB), RODATA|NOPTR, $4

// XYZF sets F to the Q0.16 f(·) of one XYZ channel of the 8 pixels whose
// linear R, G and B are Y3, Y4 and Y5: M0, M1 and M2 are the offsets of
// the channel's matrix row in the ccuVec at R11, and W that of its white
// reciprocal. Y6–Y8 are scratch; Y12 holds 0 and Y14 1 in Q0.16.
//
// The row sum stays below 2^31 (1.17e9 at most, Z's), its XYZ value
// times the white reciprocal below 2^31, and (t − t0)·slope below 2^30.
// VCVTDQ2PS is exact on t ≤ 2^16, and its exponent picks the segment as
// labFFixed's priority encode does; t = 0 reads exponent 0 and takes the
// last segment.
#define XYZF(M0, M1, M2, W, F) \
	VPMULLD      M0(R11), Y3, Y6 \
	VPMULLD      M1(R11), Y4, Y7 \
	VPADDD       Y7, Y6, Y6 \
	VPMULLD      M2(R11), Y5, Y7 \
	VPADDD       Y7, Y6, Y6 \
	VPSRLD       $14, Y6, Y6 \
	VPMULLD      W(R11), Y6, Y6 \
	VPSRLD       $14, Y6, Y6 \
	VPMINUD      Y14, Y6, Y6 \
	VCVTDQ2PS    Y6, Y7 \
	VPSRLD       $23, Y7, Y7 \
	VPBROADCASTD ccuSegE<>(SB), Y8 \
	VPSUBD       Y7, Y8, Y7 \
	VPMAXSD      Y12, Y7, Y7 \
	VPBROADCASTD ccuSegLast<>(SB), Y8 \
	VPMINSD      Y8, Y7, Y7 \
	VPERMD       ccuVec_segT0(R11), Y7, Y8 \
	VPSUBD       Y8, Y6, Y6 \
	VPERMD       ccuVec_segSlope(R11), Y7, Y8 \
	VPMULLD      Y8, Y6, Y6 \
	VPSRLD       $16, Y6, Y6 \
	VPERMD       ccuVec_segBase(R11), Y7, Y8 \
	VPADDD       Y8, Y6, F

// ABCODE sets D to the 8-bit a or b code of the Q0.16 f difference in
// D: ⌊(S·D + 128·2^16 + 2^15) / 2^16⌋ clamped to [0, 255], S the scale
// at SCALE. Y8 is scratch; Y12 holds 0 and Y13 255.
#define ABCODE(SCALE, D) \
	VPBROADCASTD SCALE, Y8 \
	VPMULLD      Y8, D, D \
	VPBROADCASTD ccuAB<>(SB), Y8 \
	VPADDD       Y8, D, D \
	VPSRAD       $16, D, D \
	VPMAXSD      Y12, D, D \
	VPMINSD      Y13, D, D

// func ccuCodesAVX2(v *ccuVec, codes []uint32, red, green, blue []uint8, n int)
//
// For each group of 8 of the n pixels, n a positive multiple of 8: the
// planes' bytes widened by VPMOVZXBD, the gamma LUT read by VPGATHERDD,
// f of each XYZ channel (XYZF), then Equation 3's rounding to 8-bit
// codes as lut's labCodes does it, packed L | a<<10 | b<<20 into codes.
TEXT ·ccuCodesAVX2(SB), NOSPLIT, $0-112
	MOVQ v+0(FP), R11
	MOVQ codes_base+8(FP), DI
	MOVQ red_base+32(FP), SI
	MOVQ green_base+56(FP), R8
	MOVQ blue_base+80(FP), R9
	MOVQ n+104(FP), CX
	XORQ AX, AX

	VPXOR        Y12, Y12, Y12
	VPBROADCASTD ccuTop<>(SB), Y13
	VPBROADCASTD ccuOne<>(SB), Y14

group:
	// Linear R, G and B. A gather clears its mask, so each sets it anew.
	VPMOVZXBD  (SI)(AX*1), Y0
	VPMOVZXBD  (R8)(AX*1), Y1
	VPMOVZXBD  (R9)(AX*1), Y2
	VPCMPEQD   Y15, Y15, Y15
	VPGATHERDD Y15, ccuVec_gamma(R11)(Y0*4), Y3
	VPCMPEQD   Y15, Y15, Y15
	VPGATHERDD Y15, ccuVec_gamma(R11)(Y1*4), Y4
	VPCMPEQD   Y15, Y15, Y15
	VPGATHERDD Y15, ccuVec_gamma(R11)(Y2*4), Y5

	XYZF(ccuVec_mat, ccuVec_mat+32, ccuVec_mat+64, ccuVec_invW, Y9)
	XYZF(ccuVec_mat+96, ccuVec_mat+128, ccuVec_mat+160, ccuVec_invW+32, Y10)
	XYZF(ccuVec_mat+192, ccuVec_mat+224, ccuVec_mat+256, ccuVec_invW+64, Y11)

	// L: 255·lQ clamped at 0, where L codes are 0 either way, divided by
	// 100 on the even lanes and then the odd ones, rounded and clamped.
	VPBROADCASTD ccuL116<>(SB), Y6
	VPMULLD      Y6, Y10, Y6
	VPBROADCASTD ccuL16<>(SB), Y7
	VPSUBD       Y7, Y6, Y6
	VPMAXSD      Y12, Y6, Y6
	VPBROADCASTD ccuDiv100<>(SB), Y7
	VPMULUDQ     Y7, Y6, Y8
	VPSRLQ       $37, Y8, Y8
	VPSRLQ       $32, Y6, Y6
	VPMULUDQ     Y7, Y6, Y6
	VPSRLQ       $37, Y6, Y6
	VPSLLQ       $32, Y6, Y6
	VPOR         Y8, Y6, Y6
	VPBROADCASTD ccuHalf<>(SB), Y7
	VPADDD       Y7, Y6, Y6
	VPSRLD       $16, Y6, Y6
	VPMINUD      Y13, Y6, Y6

	// a = 500·(fx − fy) and b = 200·(fy − fz).
	VPSUBD Y10, Y9, Y7
	ABCODE(ccuA500<>(SB), Y7)
	VPSLLD $10, Y7, Y7
	VPOR   Y7, Y6, Y6
	VPSUBD Y11, Y10, Y7
	ABCODE(ccuB200<>(SB), Y7)
	VPSLLD $20, Y7, Y7
	VPOR   Y7, Y6, Y6

	VMOVDQU Y6, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JB      group

	VZEROUPPER
	RET
