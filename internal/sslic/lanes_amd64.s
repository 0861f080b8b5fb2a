#include "go_asm.h"
#include "textflag.h"

// The AVX2 row kernel of the fixed datapath's 9 distance calculators. It
// computes, pixel by pixel, exactly what fxLaneFile.nearest computes:
// lanes 0–7 in two 256-bit registers, lane 8 in general registers. Every
// instruction is VEX-encoded, set-up included: a legacy-SSE instruction
// run while the upper halves of the YMM registers are dirty costs a
// state transition or a false dependency on each use.

// The lane numbers of lanes 0–7, the low bits of their argmin keys.
DATA laneIndex<>+0(SB)/8, $0
DATA laneIndex<>+8(SB)/8, $1
DATA laneIndex<>+16(SB)/8, $2
DATA laneIndex<>+24(SB)/8, $3
DATA laneIndex<>+32(SB)/8, $4
DATA laneIndex<>+40(SB)/8, $5
DATA laneIndex<>+48(SB)/8, $6
DATA laneIndex<>+56(SB)/8, $7
GLOBL laneIndex<>(SB), RODATA|NOPTR, $64

// One 10-bit field of a packed code word.
DATA codeField<>+0(SB)/4, $0x3ff
GLOBL codeField<>(SB), RODATA|NOPTR, $4

// func nearestRowAVX2(lf *fxLaneFile, codes []uint32, xt []int64, step int, wL int32, out []uint8)
//
// Per pixel, for lanes 0–7: the colour term in int32 (the same wrapping
// multiplies and arithmetic shift as key), sign-extended to int64, plus
// the lane's y and x terms, then d<<4 | lane. AVX2 has no 64-bit minimum,
// so compare-and-blend takes the 8 keys to 1; lane 8's key, computed in
// general registers, wins only if smaller. Keys differ in their lane
// bits, so the minimum is unique and a tie goes to the first lane.
TEXT ·nearestRowAVX2(SB), NOSPLIT, $0-96
	MOVQ lf+0(FP), R12
	MOVQ codes_base+8(FP), SI
	MOVQ xt_base+32(FP), DI
	MOVQ step+56(FP), R10
	MOVL wL+64(FP), R13
	MOVQ out_base+72(FP), R8
	MOVQ out_len+80(FP), R9
	ADDQ R8, R9             // end of out
	LEAQ (R10)(R10*8), R11
	SHLQ $3, R11            // x-term stride in bytes: step·fxLanes·8
	SHLQ $2, R10            // code stride in bytes: step·4

	VPBROADCASTD codeField<>(SB), Y15
	VMOVD        R13, X14
	VPBROADCASTD X14, Y14            // wL
	VMOVDQU      fxLaneFile_l(R12), Y13
	VMOVDQU      fxLaneFile_a(R12), Y12
	VMOVDQU      fxLaneFile_b(R12), Y11
	VMOVDQU      fxLaneFile_sy(R12), Y10
	VMOVDQU      fxLaneFile_sy+32(R12), Y9
	VMOVDQU      laneIndex<>+0(SB), Y8
	VMOVDQU      laneIndex<>+32(SB), Y7

	CMPQ R8, R9
	JAE  done

pixel:
	// Lanes 0–7: the colour term.
	VPBROADCASTD (SI), Y0
	VPAND        Y15, Y0, Y1 // L
	VPSRLD       $10, Y0, Y2
	VPAND        Y15, Y2, Y2 // a
	VPSRLD       $20, Y0, Y0 // b
	VPSUBD       Y13, Y1, Y1
	VPMULLD      Y1, Y1, Y1
	VPMULLD      Y14, Y1, Y1
	VPSRAD       $12, Y1, Y1 // dl²·wL >> (weightFrac−distFrac)
	VPSUBD       Y12, Y2, Y2
	VPMULLD      Y2, Y2, Y2
	VPSUBD       Y11, Y0, Y0
	VPMULLD      Y0, Y0, Y0
	VPADDD       Y2, Y0, Y0
	VPSLLD       $4, Y0, Y0  // (da²+db²) << distFrac
	VPADDD       Y1, Y0, Y0

	// To int64, plus the y and x terms, then d<<4 | lane.
	VPMOVSXDQ    X0, Y1
	VEXTRACTI128 $1, Y0, X2
	VPMOVSXDQ    X2, Y2
	VPADDQ       Y10, Y1, Y1
	VPADDQ       (DI), Y1, Y1
	VPADDQ       Y9, Y2, Y2
	VPADDQ       32(DI), Y2, Y2
	VPSLLQ       $4, Y1, Y1
	VPOR         Y8, Y1, Y1
	VPSLLQ       $4, Y2, Y2
	VPOR         Y7, Y2, Y2

	// The least of the 8 keys, into AX.
	VPCMPGTQ     Y2, Y1, Y3
	VBLENDVPD    Y3, Y2, Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPCMPGTQ     X2, X1, X3
	VBLENDVPD    X3, X2, X1, X1
	VMOVQ        X1, AX
	VPEXTRQ      $1, X1, DX
	CMPQ         DX, AX
	CMOVQLT      DX, AX

	// Lane 8.
	MOVL    (SI), BX
	MOVL    BX, CX
	ANDL    $0x3ff, CX
	SUBL    fxLaneFile_l+32(R12), CX
	IMULL   CX, CX
	IMULL   R13, CX
	SARL    $12, CX
	MOVL    BX, DX
	SHRL    $10, DX
	ANDL    $0x3ff, DX
	SUBL    fxLaneFile_a+32(R12), DX
	IMULL   DX, DX
	SHRL    $20, BX
	SUBL    fxLaneFile_b+32(R12), BX
	IMULL   BX, BX
	ADDL    BX, DX
	SHLL    $4, DX
	ADDL    DX, CX
	MOVLQSX CX, CX
	ADDQ    fxLaneFile_sy+64(R12), CX
	ADDQ    64(DI), CX
	SHLQ    $4, CX
	ORQ     $8, CX
	CMPQ    CX, AX
	CMOVQLT CX, AX

	ANDL $15, AX
	MOVB AX, (R8)
	ADDQ R10, SI
	ADDQ R11, DI
	INCQ R8
	CMPQ R8, R9
	JB   pixel

done:
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
