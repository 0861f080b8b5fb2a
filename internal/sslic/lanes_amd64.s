#include "go_asm.h"
#include "textflag.h"

// The AVX2 band kernel of the fixed datapath's 9 distance calculators.
// Where the Go lane kernel runs one pixel through 9 lanes, this kernel
// runs 8 subset pixels at once, one to each 32-bit element of a YMM
// register, through the tile's real candidates, and then writes their
// labels and adds their sigma sums. One call walks a whole tile row. Every instruction is VEX-encoded: a
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

// One group's step of the packed column, 8<<16.
DATA xStep<>+0(SB)/4, $0x80000
GLOBL xStep<>(SB), RODATA|NOPTR, $4

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

// func fxRowAVX2(vts []fxVecTile, codes []uint32, labels []int32, xt, yt []int32, acc []fxSigma, bk *fxBlocks) int64
//
// For each block of bk, for each tile of vts, for each group of 8 of the
// tile's columns: lane c takes column x0 + c of the group, from the
// block's row ri_c held in Y12, and is live if that column is the tile's
// and that row the block's. Each row's live lanes load their codes by
// one masked load. Then, for each candidate j, the colour term in int32,
// L by VPMADDWD and VPMULLD, a and b as one VPMADDWD over 4a|4b<<16,
// equal to key's colour term on 8-bit codes; and the key (colour<<4) +
// (y term<<4) + (x term<<4 | j), with the y term of each lane's row
// picked by VPERMD from the 8 terms of centre cand[j] from the block's
// first row on, th rows to a centre in yt, and the x terms from one load
// at xt. VPMINSD keeps the least key; a tie
// goes to the first lane, since keys differ in their lane bits. The
// winning lane indexes the candidates by VPERMD into the labels, which
// go out by one masked store per row. Then, for each candidate some
// pixel of the group chose, a compare selects those pixels' packed
// fields, L|a<<16, b|x<<16 and y|1<<16, and their horizontal sums, whose
// halves stay below 2^16, are added into acc[cand[j]]; the pixels times
// the tile's candidates are the calcs returned. Idle lanes take lane 15,
// which matches no candidate, and read and write nothing.
TEXT ·fxRowAVX2(SB), NOSPLIT, $216-160
	MOVQ bk+144(FP), DX
	LEAQ laneNum<>(SB), BX

	VPBROADCASTD fxBlocks_wL(DX), Y15
	VPBROADCASTD codeField<>(SB), Y14
	VMOVDQU      (BX), Y13           // 0, 1, ..., 7
	VPBROADCASTD fxBlocks_m(DX), Y0
	VMOVDQU      Y0, m-32(SP)
	VPCMPEQD     Y1, Y1, Y1
	VPADDD       Y1, Y0, Y0
	VMOVDQU      Y0, mlast-64(SP)    // m − 1
	VPBROADCASTD fxBlocks_dm(DX), Y0
	VMOVDQU      Y0, dm-96(SP)
	VMOVDQU      fxBlocks_lanes(DX), Y0
	VMOVDQU      Y0, lanes-200(SP)   // (−c) mod m
	MOVQ         fxBlocks_m(DX), AX
	MOVQ         AX, mq-208(SP)
	MOVQ         fxBlocks_th(DX), AX
	MOVQ         AX, th-216(SP)
	MOVQ         fxBlocks_y(DX), AX
	MOVQ         AX, rb-104(SP)
	MOVQ         fxBlocks_n(DX), AX
	MOVQ         AX, nb-112(SP)
	MOVQ         $0, sig-120(SP)     // the block's phase shift, −(rb − y) mod m
	MOVQ         $0, calcs-168(SP)
	MOVQ         fxBlocks_w(DX), R14
	SHLQ         $2, R14             // row stride in bytes

block:
	// The block's rows, min(rows, end − rb); its codes, labels and y
	// terms at row rb, whose codes and labels start at row y0.
	MOVQ         bk+144(FP), DX
	MOVQ         rb-104(SP), AX
	MOVQ         fxBlocks_end(DX), CX
	SUBQ         AX, CX
	MOVQ         fxBlocks_rows(DX), R12
	CMPQ         CX, R12
	CMOVQGT      R12, CX
	MOVQ         CX, rows-128(SP)
	MOVQ         AX, R12
	SUBQ         fxBlocks_y0(DX), R12 // rb − y0
	MOVQ         fxBlocks_c0(DX), R13
	IMULQ        fxBlocks_th(DX), R13
	NEGQ         R13
	ADDQ         R12, R13
	SHLQ         $2, R13
	ADDQ         yt_base+96(FP), R13
	MOVQ         R13, yrow-152(SP)   // centre ci's y term at row rb: ci·th·4 on
	IMULQ        R14, R12
	MOVQ         codes_base+24(FP), SI
	ADDQ         R12, SI
	MOVQ         SI, crow-136(SP)
	MOVQ         labels_base+48(FP), DI
	ADDQ         R12, DI
	MOVQ         DI, lrow-144(SP)
	ORQ          $0x10000, AX
	VMOVQ        AX, X11
	VPBROADCASTD X11, Y11            // rb|1<<16
	MOVQ         vts_base+0(FP), R11
	MOVQ         vts_len+8(FP), AX
	MOVQ         AX, nt-160(SP)

tile:
	// The lanes' rows, (p + shift − c) mod m; the candidates; x<<16.
	MOVLQSX      fxVecTile_p(R11), AX
	ADDQ         sig-120(SP), AX
	MOVQ         AX, CX
	SUBQ         mq-208(SP), CX
	CMOVQGE      CX, AX
	VMOVQ        AX, X12
	VPBROADCASTD X12, Y12
	VPADDD       lanes-200(SP), Y12, Y12
	VPCMPGTD     mlast-64(SP), Y12, Y4
	VPAND        m-32(SP), Y4, Y4
	VPSUBD       Y4, Y12, Y12
	VMOVDQU      fxVecTile_cand(R11), Y9
	MOVLQSX      fxVecTile_x0(R11), AX
	VMOVQ        AX, X10
	VPBROADCASTD X10, Y10
	VPADDD       Y13, Y10, Y10
	VPSLLD       $16, Y10, Y10
	SHLQ         $2, AX
	MOVQ         crow-136(SP), SI
	ADDQ         AX, SI
	MOVQ         lrow-144(SP), DI
	ADDQ         AX, DI
	MOVLQSX      fxVecTile_xt(R11), R9
	SHLQ         $2, R9
	ADDQ         xt_base+72(FP), R9
	MOVLQSX      fxVecTile_tw(R11), R8
	MOVQ         R8, R10
	SHLQ         $2, R10             // lane stride of the x terms in bytes

group:
	// The live lanes: a column of the tile, a row of the block.
	VMOVQ        R8, X7
	VPBROADCASTD X7, Y7
	VPCMPGTD     Y13, Y7, Y7
	VPBROADCASTD rows-128(SP), Y6
	VPCMPGTD     Y12, Y6, Y6
	VPAND        Y6, Y7, Y7

	// The codes, each row's live lanes by one masked load.
	VPXOR Y0, Y0, Y0
	MOVQ  SI, R12
	XORQ  CX, CX

load:
	VPBROADCASTD (BX)(CX*4), Y4
	VPCMPEQD     Y12, Y4, Y4
	VPAND        Y7, Y4, Y4
	VPMASKMOVD   (R12), Y4, Y5
	VPOR         Y5, Y0, Y0
	ADDQ         R14, R12
	INCQ         CX
	CMPQ         CX, rows-128(SP)
	JB           load

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
	MOVLQSX  fxVecTile_n(R11), R12
	MOVQ     R9, R13
	MOVQ     yrow-152(SP), AX
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
	VPSLLD       $4, Y4, Y4
	MOVLQSX      fxVecTile_cand(R11)(CX*4), DX
	IMULQ        th-216(SP), DX
	VPERMD       (AX)(DX*4), Y12, Y5
	VPADDD       Y5, Y4, Y4          // plus the y term<<4 of the lane's row
	VPADDD       (R13), Y4, Y4       // plus the x term<<4 | j
	VPMINSD      Y4, Y3, Y3
	ADDQ         R10, R13
	INCQ         CX
	CMPQ         CX, R12
	JB           lane

	VPCMPEQD     Y6, Y6, Y6
	VPXOR        Y7, Y6, Y6
	VPOR         Y6, Y3, Y3
	VPBROADCASTD keyLane<>(SB), Y8
	VPAND        Y8, Y3, Y8          // the winning lane; 15 where idle

	// The labels: the winning lanes' candidates, each row's by one
	// masked store.
	VPERMD       Y9, Y8, Y4
	CMPQ         R12, $9
	JB           store
	VPBROADCASTD 32(BX), Y5
	VPCMPEQD     Y8, Y5, Y5
	VPBROADCASTD fxVecTile_cand+32(R11), Y3
	VPBLENDVB    Y5, Y3, Y4, Y4

store:
	MOVQ DI, R13
	XORQ CX, CX

stores:
	VPBROADCASTD (BX)(CX*4), Y5
	VPCMPEQD     Y12, Y5, Y5
	VPAND        Y7, Y5, Y5
	VPMASKMOVD   Y4, Y5, (R13)
	ADDQ         R14, R13
	INCQ         CX
	CMPQ         CX, rows-128(SP)
	JB           stores

	// The packed fields.
	VPSLLD       $6, Y0, Y3
	VPBROADCASTD aHigh<>(SB), Y4
	VPAND        Y4, Y3, Y3
	VPOR         Y3, Y1, Y1          // L | a<<16
	VPSRLD       $20, Y0, Y2
	VPOR         Y10, Y2, Y2         // b | x<<16
	VPADDD       Y12, Y11, Y6        // y | 1<<16

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
	JZ           next

sum:
	BSFL         AX, CX
	MOVL         fxVecTile_cand(R11)(CX*4), R13
	IMUL3Q       $const_fxSigmaSize, R13, R13
	ADDQ         acc_base+120(FP), R13 // &acc[cand[j]]
	VPBROADCASTD (BX)(CX*4), Y4
	VPCMPEQD     Y8, Y4, Y4          // the pixels that chose j
	VPAND        Y1, Y4, Y5
	HSUM(Y5, X5, X7, DX)
	ADDSUMS(DX, const_fxSigmaL, const_fxSigmaA)
	VPAND        Y2, Y4, Y5
	HSUM(Y5, X5, X7, DX)
	ADDSUMS(DX, const_fxSigmaB, const_fxSigmaX)
	VPAND        Y6, Y4, Y5
	HSUM(Y5, X5, X7, DX)
	ADDSUMS(DX, const_fxSigmaY, const_fxSigmaN)
	IMULL        fxVecTile_n(R11), DX
	ADDQ         DX, calcs-168(SP)
	LEAL         -1(AX), DX
	ANDL         DX, AX
	JNZ          sum

next:
	// The next group: 8 columns on, each lane's row dm on, mod m.
	VPBROADCASTD xStep<>(SB), Y4
	VPADDD       Y4, Y10, Y10
	VPADDD       dm-96(SP), Y12, Y12
	VPCMPGTD     mlast-64(SP), Y12, Y4
	VPAND        m-32(SP), Y4, Y4
	VPSUBD       Y4, Y12, Y12
	ADDQ         $32, SI
	ADDQ         $32, DI
	ADDQ         $32, R9
	SUBQ         $8, R8
	JG           group

	ADDQ $const_fxVecTileSize, R11
	DECQ nt-160(SP)
	JNZ  tile

	// The next block: stride rows on, its phase shift −shift mod m.
	MOVQ bk+144(FP), DX
	MOVQ sig-120(SP), AX
	SUBQ fxBlocks_shift(DX), AX
	JGE  shifted
	ADDQ fxBlocks_m(DX), AX

shifted:
	MOVQ AX, sig-120(SP)
	MOVQ rb-104(SP), AX
	ADDQ fxBlocks_stride(DX), AX
	MOVQ AX, rb-104(SP)
	DECQ nb-112(SP)
	JNZ  block

	MOVQ calcs-168(SP), AX
	MOVQ AX, ret+152(FP)
	VZEROUPPER
	RET
