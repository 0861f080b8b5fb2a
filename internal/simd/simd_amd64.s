#include "textflag.h"

// func notEqualAVX2(dst *uint64, a, b *int32, n int)
//
// Each group of 8 pixels is one VPCMPEQD of the two rows and one
// VMOVMSKPS of its lanes: 8 equal bits, and a NOT turns a word of them
// into changed bits. A whole word, 8 groups, runs unrolled. A last word
// of g < 8 groups gathers its groups from the top, 8 bits at a time,
// and after the NOT shifts down by 8·(8 − g), which also clears the
// bits past n.
TEXT ·notEqualAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), R9
	SHRQ $3, R9 // groups left
	CMPQ R9, $8
	JB   tail

full:
	VMOVDQU   (SI), Y0
	VMOVDQU   32(SI), Y1
	VMOVDQU   64(SI), Y2
	VMOVDQU   96(SI), Y3
	VPCMPEQD  (DX), Y0, Y0
	VPCMPEQD  32(DX), Y1, Y1
	VPCMPEQD  64(DX), Y2, Y2
	VPCMPEQD  96(DX), Y3, Y3
	VMOVDQU   128(SI), Y4
	VMOVDQU   160(SI), Y5
	VMOVDQU   192(SI), Y6
	VMOVDQU   224(SI), Y7
	VPCMPEQD  128(DX), Y4, Y4
	VPCMPEQD  160(DX), Y5, Y5
	VPCMPEQD  192(DX), Y6, Y6
	VPCMPEQD  224(DX), Y7, Y7
	VMOVMSKPS Y0, R8
	VMOVMSKPS Y1, AX
	VMOVMSKPS Y2, BX
	VMOVMSKPS Y3, CX
	SHLQ      $8, AX
	SHLQ      $16, BX
	SHLQ      $24, CX
	ORQ       AX, R8
	ORQ       BX, R8
	ORQ       CX, R8
	VMOVMSKPS Y4, AX
	VMOVMSKPS Y5, BX
	VMOVMSKPS Y6, CX
	VMOVMSKPS Y7, R10
	SHLQ      $32, AX
	SHLQ      $40, BX
	SHLQ      $48, CX
	SHLQ      $56, R10
	ORQ       AX, R8
	ORQ       BX, R8
	ORQ       CX, R8
	ORQ       R10, R8
	NOTQ      R8
	MOVQ      R8, (DI)
	ADDQ      $256, SI
	ADDQ      $256, DX
	ADDQ      $8, DI
	SUBQ      $8, R9
	CMPQ      R9, $8
	JAE       full

tail:
	TESTQ R9, R9
	JZ    done
	XORQ  R8, R8
	MOVQ  $8, CX
	SUBQ  R9, CX
	SHLQ  $3, CX // 8·(8 − groups)

group:
	VMOVDQU   (SI), Y0
	VPCMPEQD  (DX), Y0, Y0
	VMOVMSKPS Y0, AX
	SHRQ      $8, R8
	SHLQ      $56, AX
	ORQ       AX, R8
	ADDQ      $32, SI
	ADDQ      $32, DX
	DECQ      R9
	JNZ       group

	NOTQ R8
	SHRQ CX, R8
	MOVQ R8, (DI)

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
