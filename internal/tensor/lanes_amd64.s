//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the lane helpers; lanes_generic.go states the contract.
// Every multiply and every add is its own instruction, in the Go expression's
// order, so each lane computes exactly what the Go body computes for that
// element. Loads and stores are unaligned and never reach past the slice
// length: an 8-lane (4-lane for scoreRow) main loop, then a scalar loop for
// the remainder.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func quadAxpy2AVX2(d0, d1, b0, b1, b2, b3 []float32,
//	a00, a01, a02, a03, a10, a11, a12, a13 float32)
TEXT ·quadAxpy2AVX2(SB), NOSPLIT, $0-176
	MOVQ d0_base+0(FP), DI
	MOVQ d0_len+8(FP), CX
	MOVQ d1_base+24(FP), SI
	MOVQ b0_base+48(FP), R8
	MOVQ b1_base+72(FP), R9
	MOVQ b2_base+96(FP), R10
	MOVQ b3_base+120(FP), R11
	VBROADCASTSS a00+144(FP), Y8
	VBROADCASTSS a01+148(FP), Y9
	VBROADCASTSS a02+152(FP), Y10
	VBROADCASTSS a03+156(FP), Y11
	VBROADCASTSS a10+160(FP), Y12
	VBROADCASTSS a11+164(FP), Y13
	VBROADCASTSS a12+168(FP), Y14
	VBROADCASTSS a13+172(FP), Y15
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JEQ  q2tail

q2loop:
	VMOVUPS (R8)(AX*4), Y0
	VMOVUPS (R9)(AX*4), Y1
	VMOVUPS (R10)(AX*4), Y2
	VMOVUPS (R11)(AX*4), Y3
	VMULPS  Y0, Y8, Y4
	VMULPS  Y1, Y9, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  Y2, Y10, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  Y3, Y11, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (DI)(AX*4), Y5
	VADDPS  Y4, Y5, Y5
	VMOVUPS Y5, (DI)(AX*4)
	VMULPS  Y0, Y12, Y6
	VMULPS  Y1, Y13, Y7
	VADDPS  Y7, Y6, Y6
	VMULPS  Y2, Y14, Y7
	VADDPS  Y7, Y6, Y6
	VMULPS  Y3, Y15, Y7
	VADDPS  Y7, Y6, Y6
	VMOVUPS (SI)(AX*4), Y7
	VADDPS  Y6, Y7, Y7
	VMOVUPS Y7, (SI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     q2loop

q2tail:
	CMPQ AX, CX
	JGE  q2done

q2tail1:
	VMOVSS (R8)(AX*4), X0
	VMOVSS (R9)(AX*4), X1
	VMOVSS (R10)(AX*4), X2
	VMOVSS (R11)(AX*4), X3
	VMULSS X0, X8, X4
	VMULSS X1, X9, X5
	VADDSS X5, X4, X4
	VMULSS X2, X10, X5
	VADDSS X5, X4, X4
	VMULSS X3, X11, X5
	VADDSS X5, X4, X4
	VMOVSS (DI)(AX*4), X5
	VADDSS X4, X5, X5
	VMOVSS X5, (DI)(AX*4)
	VMULSS X0, X12, X6
	VMULSS X1, X13, X7
	VADDSS X7, X6, X6
	VMULSS X2, X14, X7
	VADDSS X7, X6, X6
	VMULSS X3, X15, X7
	VADDSS X7, X6, X6
	VMOVSS (SI)(AX*4), X7
	VADDSS X6, X7, X7
	VMOVSS X7, (SI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    q2tail1

q2done:
	VZEROUPPER
	RET

// func quadAxpy1AVX2(d, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
TEXT ·quadAxpy1AVX2(SB), NOSPLIT, $0-136
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSS a0+120(FP), Y8
	VBROADCASTSS a1+124(FP), Y9
	VBROADCASTSS a2+128(FP), Y10
	VBROADCASTSS a3+132(FP), Y11
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JEQ  q1tail

q1loop:
	VMULPS  (R8)(AX*4), Y8, Y4
	VMULPS  (R9)(AX*4), Y9, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R10)(AX*4), Y10, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R11)(AX*4), Y11, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (DI)(AX*4), Y5
	VADDPS  Y4, Y5, Y5
	VMOVUPS Y5, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     q1loop

q1tail:
	CMPQ AX, CX
	JGE  q1done

q1tail1:
	VMULSS (R8)(AX*4), X8, X4
	VMULSS (R9)(AX*4), X9, X5
	VADDSS X5, X4, X4
	VMULSS (R10)(AX*4), X10, X5
	VADDSS X5, X4, X4
	VMULSS (R11)(AX*4), X11, X5
	VADDSS X5, X4, X4
	VMOVSS (DI)(AX*4), X5
	VADDSS X4, X5, X5
	VMOVSS X5, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    q1tail1

q1done:
	VZEROUPPER
	RET

// func tailAxpy2AVX2(d0, d1, b []float32, a0, a1 float32)
TEXT ·tailAxpy2AVX2(SB), NOSPLIT, $0-80
	MOVQ d0_base+0(FP), DI
	MOVQ d0_len+8(FP), CX
	MOVQ d1_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	VBROADCASTSS a0+72(FP), Y8
	VBROADCASTSS a1+76(FP), Y9
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JEQ  t2tail

t2loop:
	VMOVUPS (R8)(AX*4), Y0
	VMULPS  Y0, Y8, Y4
	VMOVUPS (DI)(AX*4), Y5
	VADDPS  Y4, Y5, Y5
	VMOVUPS Y5, (DI)(AX*4)
	VMULPS  Y0, Y9, Y6
	VMOVUPS (SI)(AX*4), Y7
	VADDPS  Y6, Y7, Y7
	VMOVUPS Y7, (SI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     t2loop

t2tail:
	CMPQ AX, CX
	JGE  t2done

t2tail1:
	VMOVSS (R8)(AX*4), X0
	VMULSS X0, X8, X4
	VMOVSS (DI)(AX*4), X5
	VADDSS X4, X5, X5
	VMOVSS X5, (DI)(AX*4)
	VMULSS X0, X9, X6
	VMOVSS (SI)(AX*4), X7
	VADDSS X6, X7, X7
	VMOVSS X7, (SI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    t2tail1

t2done:
	VZEROUPPER
	RET

// func tailAxpy1AVX2(d, b []float32, a float32)
TEXT ·tailAxpy1AVX2(SB), NOSPLIT, $0-52
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	VBROADCASTSS a+48(FP), Y8
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JEQ  t1tail

t1loop:
	VMULPS  (R8)(AX*4), Y8, Y4
	VMOVUPS (DI)(AX*4), Y5
	VADDPS  Y4, Y5, Y5
	VMOVUPS Y5, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     t1loop

t1tail:
	CMPQ AX, CX
	JGE  t1done

t1tail1:
	VMULSS (R8)(AX*4), X8, X4
	VMOVSS (DI)(AX*4), X5
	VADDSS X4, X5, X5
	VMOVSS X5, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, CX
	JLT    t1tail1

t1done:
	VZEROUPPER
	RET

// func scoreRowAVX2(dst, q, k []float32, stride int)
//
// The Go body's four accumulators s0..s3 are the four lanes of X0.
TEXT ·scoreRowAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), DX
	MOVQ k_base+48(FP), R8
	MOVQ stride+72(FP), R9
	SHLQ $2, R9
	MOVQ DX, R10
	ANDQ $-4, R10
	XORQ BX, BX
	CMPQ BX, CX
	JGE  srdone

srkey:
	VXORPS X0, X0, X0
	XORQ   AX, AX
	CMPQ   AX, R10
	JGE    srtail

srquad:
	VMOVUPS (SI)(AX*4), X1
	VMULPS  (R8)(AX*4), X1, X1
	VADDPS  X1, X0, X0
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     srquad

srtail:
	CMPQ AX, DX
	JGE  srsum

srtail1:
	VMOVSS (SI)(AX*4), X1
	VMULSS (R8)(AX*4), X1, X1
	VADDSS X1, X0, X0
	INCQ   AX
	CMPQ   AX, DX
	JLT    srtail1

srsum:
	// ((s0 + s1) + s2) + s3
	VMOVSHDUP X0, X1
	VADDSS    X1, X0, X2
	VMOVHLPS  X0, X0, X1
	VADDSS    X1, X2, X2
	VPERMILPS $3, X0, X1
	VADDSS    X1, X2, X2
	VMOVSS    X2, (DI)(BX*4)
	ADDQ      R9, R8
	INCQ      BX
	CMPQ      BX, CX
	JLT       srkey

srdone:
	RET
