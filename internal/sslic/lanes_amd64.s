#include "go_asm.h"
#include "textflag.h"

// The AVX2 band kernel of the fixed datapath's 9 distance calculators.
// Where the Go lane kernel runs one pixel through 9 lanes, this kernel
// runs 8 subset pixels at once, one to each 32-bit element of a YMM
// register, through the tile's real candidates, and then writes their
// labels and adds their sigma sums. Every instruction is VEX-encoded: a
// legacy-SSE instruction run while the upper halves of the YMM
// registers are dirty costs a state transition or a false dependency on
// each use.

// The lane numbers 0–8, the low bits of the argmin keys.
DATA laneNum<>+0(SB)/4, $0
DATA laneNum<>+4(SB)/4, $1
DATA laneNum<>+8(SB)/4, $2
DATA laneNum<>+12(SB)/4, $3
DATA laneNum<>+16(SB)/4, $4
DATA laneNum<>+20(SB)/4, $5
DATA laneNum<>+24(SB)/4, $6
DATA laneNum<>+28(SB)/4, $7
DATA laneNum<>+32(SB)/4, $8
GLOBL laneNum<>(SB), RODATA|NOPTR, $36

// One 10-bit field of a packed code word.
DATA codeField<>+0(SB)/4, $0x3ff
GLOBL codeField<>(SB), RODATA|NOPTR, $4

// 4a in the low half of a word shifted right by 8, and 4b in the high
// half of a word shifted right by 2.
DATA abLow<>+0(SB)/4, $0xffc
GLOBL abLow<>(SB), RODATA|NOPTR, $4
DATA abHigh<>+0(SB)/4, $0x0ffc0000
GLOBL abHigh<>(SB), RODATA|NOPTR, $4

// a in the high half of a word shifted left by 6.
DATA aHigh<>+0(SB)/4, $0x03ff0000
GLOBL aHigh<>(SB), RODATA|NOPTR, $4

// The lane bits of an argmin key.
DATA keyLane<>+0(SB)/4, $15
GLOBL keyLane<>(SB), RODATA|NOPTR, $4

// HSUM sets R to the sum of the 8 int32 elements of Y, whose low half
// is X, using T as scratch; Y is lost.
#define HSUM(Y, X, T, R) \
	VEXTRACTI128 $1, Y, T \
	VPADDD       T, X, X  \
	VPSHUFD      $0x4e, X, T \
	VPADDD       T, X, X  \
	VPSHUFD      $0xb1, X, T \
	VPADDD       T, X, X  \
	VMOVD        X, R

// ADDSUMS adds the two 16-bit halves of R into the int64 fields LO and
// HI of the sums at (R13), using R12 as scratch.
#define ADDSUMS(R, LO, HI) \
	MOVL  R, R12  \
	ANDL  $0xffff, R12 \
	ADDQ  R12, LO(R13) \
	SHRL  $16, R  \
	ADDQ  R, HI(R13)

// func fxBandAVX2(vt *fxVecTile, codes []uint32, labels []int32, xt []int32, acc []fxSigma, n, step, xs int, px, py int32)
//
// For each group of 8 of the n pixels codes[i*step]: the colour term of
// each candidate j in int32, L by VPMADDWD and VPMULLD, a and b as one
// VPMADDWD over 4a|4b<<16, equal to key's colour term on 8-bit codes;
// then the key ((colour + x term)<<4) + (y term<<4 | j),
// with x terms xt[j*xs+i] and y terms from vt.yl. VPMINSD keeps the
// least key; a tie goes to the first lane, since keys differ in their
// lane bits. The winning lane indexes the candidates by VPERMD into the
// labels. Then, for each candidate some pixel of the group chose, a
// compare selects those pixels' packed fields, L|a<<16, b|x<<16 and
// y|1<<16 with x = px + i*step and y|1<<16 = py, and their horizontal
// sums, whose halves stay below 2^16, are added into acc[vt.cand[j]].
// Lanes past n take lane 15, which matches no candidate, and write no
// label.
TEXT ·fxBandAVX2(SB), NOSPLIT, $64-136
	MOVQ vt+0(FP), R11
	MOVQ codes_base+8(FP), SI
	MOVQ labels_base+32(FP), DI
	MOVQ xt_base+56(FP), R9
	MOVQ n+104(FP), R8
	MOVQ step+112(FP), R14
	MOVQ xs+120(FP), R10
	SHLQ $2, R14                     // pixel stride in bytes
	SHLQ $2, R10                     // lane stride of the x terms in bytes
	LEAQ laneNum<>(SB), BX

	VPBROADCASTD fxVecTile_wL(R11), Y15
	VPBROADCASTD codeField<>(SB), Y14
	VMOVDQU      (BX), Y13           // 0, 1, ..., 7
	MOVQ         R14, AX
	SHRQ         $2, AX
	VMOVQ        AX, X12
	VPBROADCASTD X12, Y12
	VPMULLD      Y13, Y12, Y12       // i*step, the pixels' word offsets
	MOVL         py+132(FP), DX
	VMOVD        DX, X11
	VPBROADCASTD X11, Y11            // y|1<<16
	MOVL         px+128(FP), DX
	VMOVD        DX, X10
	VPBROADCASTD X10, Y10
	VPADDD       Y12, Y10, Y10
	VPSLLD       $16, Y10, Y10       // x<<16
	SHLQ         $3, AX
	VMOVQ        AX, X9
	VPBROADCASTD X9, Y9
	VPSLLD       $16, Y9, Y9
	VMOVDQU      Y9, xinc-64(SP)     // 8*step<<16, x from one group to the next
	VMOVDQU      fxVecTile_cand(R11), Y9

group:
	// The group's live lanes, i < the pixels left; the codes.
	VMOVQ        R8, X7
	VPBROADCASTD X7, Y7
	VPCMPGTD     Y13, Y7, Y7         // live
	VPCMPEQD     Y6, Y6, Y6
	VPXOR        Y7, Y6, Y6          // past n
	VPXOR        Y0, Y0, Y0
	VPGATHERDD   Y7, (SI)(Y12*4), Y0
	VPAND        Y14, Y0, Y1         // L
	VPSRLD       $8, Y0, Y2
	VPBROADCASTD abLow<>(SB), Y3
	VPAND        Y3, Y2, Y2
	VPSRLD       $2, Y0, Y3
	VPBROADCASTD abHigh<>(SB), Y4
	VPAND        Y4, Y3, Y3
	VPOR         Y3, Y2, Y2          // 4a | 4b<<16

	// The least key over the candidates.
	VPCMPEQD Y3, Y3, Y3
	VPSRLD   $1, Y3, Y3
	MOVQ     fxVecTile_n(R11), R12
	MOVQ     R9, R13
	XORQ     CX, CX

lane:
	VPBROADCASTD fxVecTile_l(R11)(CX*4), Y4
	VPSUBW       Y4, Y1, Y4
	VPMADDWD     Y4, Y4, Y4
	VPMULLD      Y15, Y4, Y4
	VPSRAD       $12, Y4, Y4         // dl²·wL >> (weightFrac−distFrac)
	VPBROADCASTD fxVecTile_ab(R11)(CX*4), Y5
	VPSUBW       Y5, Y2, Y5
	VPMADDWD     Y5, Y5, Y5          // (da²+db²) << distFrac
	VPADDD       Y5, Y4, Y4
	VPADDD       (R13), Y4, Y4       // plus the x term
	VPSLLD       $4, Y4, Y4
	VPBROADCASTD fxVecTile_yl(R11)(CX*4), Y5
	VPADDD       Y5, Y4, Y4          // plus the y term<<4 | j
	VPMINSD      Y4, Y3, Y3
	ADDQ         R10, R13
	INCQ         CX
	CMPQ         CX, R12
	JB           lane

	VPOR         Y6, Y3, Y3
	VPBROADCASTD keyLane<>(SB), Y8
	VPAND        Y8, Y3, Y8          // the winning lane; 15 past n

	// The labels: the winning lanes' candidates.
	VPERMD       Y9, Y8, Y4
	CMPQ         R12, $9
	JB           store
	VPBROADCASTD 32(BX), Y5
	VPCMPEQD     Y8, Y5, Y5
	VPBROADCASTD fxVecTile_cand+32(R11), Y3
	VPBLENDVB    Y5, Y3, Y4, Y4

store:
	CMPQ       R14, $4
	JNE        strided
	VPCMPEQD   Y3, Y3, Y3
	VPXOR      Y6, Y3, Y3
	VPMASKMOVD Y4, Y3, (DI)
	JMP        sums

strided:
	VMOVDQU Y4, lbl-32(SP)
	MOVQ    $8, DX
	CMPQ    R8, DX
	CMOVQLT R8, DX
	MOVQ    DI, R13
	XORQ    CX, CX

scatter:
	MOVL lbl-32(SP)(CX*4), AX
	MOVL AX, (R13)
	ADDQ R14, R13
	INCQ CX
	CMPQ CX, DX
	JB   scatter

sums:
	// The packed fields.
	VPSLLD       $6, Y0, Y3
	VPBROADCASTD aHigh<>(SB), Y4
	VPAND        Y4, Y3, Y3
	VPOR         Y3, Y1, Y1          // L | a<<16
	VPSRLD       $20, Y0, Y2
	VPOR         Y10, Y2, Y2         // b | x<<16

	// The candidates the group's pixels chose, one bit each in AX.
	VPCMPEQD     Y4, Y4, Y4
	VPSRLD       $31, Y4, Y4
	VPSLLVD      Y8, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPOR         X5, X4, X4
	VPSHUFD      $0x4e, X4, X5
	VPOR         X5, X4, X4
	VPSHUFD      $0xb1, X4, X5
	VPOR         X5, X4, X4
	VMOVD        X4, AX
	ANDL         $0x1ff, AX

sum:
	BSFL         AX, CX
	MOVL         fxVecTile_cand(R11)(CX*4), R13
	IMUL3Q       $const_fxSigmaSize, R13, R13
	ADDQ         acc_base+80(FP), R13 // &acc[vt.cand[j]]
	VPBROADCASTD (BX)(CX*4), Y4
	VPCMPEQD     Y8, Y4, Y4          // the pixels that chose j
	VPAND        Y1, Y4, Y5
	HSUM(Y5, X5, X7, DX)
	ADDSUMS(DX, const_fxSigmaL, const_fxSigmaA)
	VPAND        Y2, Y4, Y5
	HSUM(Y5, X5, X7, DX)
	ADDSUMS(DX, const_fxSigmaB, const_fxSigmaX)
	VPAND        Y11, Y4, Y5
	HSUM(Y5, X5, X7, DX)
	ADDSUMS(DX, const_fxSigmaY, const_fxSigmaN)
	LEAL         -1(AX), DX
	ANDL         DX, AX
	JNZ          sum

	VPADDD xinc-64(SP), Y10, Y10
	LEAQ   (SI)(R14*8), SI
	LEAQ   (DI)(R14*8), DI
	ADDQ   $32, R9
	SUBQ   $8, R8
	JG     group

	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 runs only if the CPU has AVX (CPUID leaf 1, ECX bit 28) and AVX2
// (leaf 7, EBX bit 5), and the OS has enabled XSAVE (leaf 1, ECX bit 27)
// and saves the XMM and YMM state (XCR0 bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
