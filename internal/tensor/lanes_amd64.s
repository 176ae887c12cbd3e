//go:build amd64 && !purego

#include "textflag.h"

// AVX2 bodies of the lane helpers; lanes_generic.go states the contract.
// Every multiply and every add is its own instruction, in the Go expression's
// order, so each lane computes exactly what the Go body computes for that
// element. Loads and stores are unaligned and never reach past the slice
// length. A tile helper runs one register tile after the other across its n
// columns; each keeps its outputs in registers across the whole k range and
// stores them once. scoreRow runs four lanes per key, expRow eight per
// step, valueRow column strips of 16, 8, 4 and 1.
//
// A tile walks b down a column strip at b's row stride, a pattern the
// hardware prefetchers do not follow, and a decode step's weights do not all
// stay in L2; so each k-quad prefetches into L2 the same four b rows of the
// next tile's columns (for tile4x8 two tiles on, the next 64-byte line; for
// tile1x32 the first of its two lines, which the L2's adjacent-line
// prefetcher pairs), which the following tiles read. Prefetches never
// fault, so the last tile's run past the operand is harmless.
//
// The tiles' flags argument uses lanes_generic.go's bits: 1 tileLoad,
// 2 tileBias, 4 tileReLU.

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

// func tile4x8AVX2(d []float32, sd int, a []float32, sa int, b []float32, sb, k, n int, bias []float32, flags int)
//
// One 4×8 tile per 8 columns, BX its first column. Y0..Y3 accumulate the
// four rows; a k-quad loads its four b rows into Y4..Y7 once, and row r
// builds its t in Y(8+2r), Y(9+2r).
TEXT ·tile4x8AVX2(SB), NOSPLIT, $0-144
	MOVQ sd+24(FP), R11
	SHLQ $2, R11
	MOVQ sa+56(FP), R10
	SHLQ $2, R10
	MOVQ sb+88(FP), R9
	SHLQ $2, R9
	MOVQ flags+136(FP), R12
	LEAQ (R9)(R9*2), AX     // the quad's fourth b row
	XORQ BX, BX

t48tile:
	MOVQ  d_base+0(FP), DI
	LEAQ  (DI)(BX*4), DI
	LEAQ  (DI)(R11*2), R14  // d rows 2 and 3
	MOVQ  a_base+32(FP), SI
	LEAQ  (SI)(R10*2), R13  // a rows 2 and 3
	MOVQ  b_base+64(FP), R8
	LEAQ  (R8)(BX*4), R8
	MOVQ  k+96(FP), CX
	TESTQ $1, R12
	JNE   t48load
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	JMP   t48k

t48load:
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R11*1), Y1
	VMOVUPS (R14), Y2
	VMOVUPS (R14)(R11*1), Y3

t48k:
	MOVQ CX, DX
	SHRQ $2, DX
	ANDQ $3, CX
	TESTQ DX, DX
	JEQ  t48tail

t48quad:
	PREFETCHT1   64(R8)
	PREFETCHT1   64(R8)(R9*1)
	PREFETCHT1   64(R8)(R9*2)
	PREFETCHT1   64(R8)(AX*1)
	VMOVUPS      (R8), Y4
	VMOVUPS      (R8)(R9*1), Y5
	VMOVUPS      (R8)(R9*2), Y6
	VMOVUPS      (R8)(AX*1), Y7
	VBROADCASTSS (SI), Y8
	VMULPS       Y4, Y8, Y8
	VBROADCASTSS 4(SI), Y9
	VMULPS       Y5, Y9, Y9
	VADDPS       Y9, Y8, Y8
	VBROADCASTSS 8(SI), Y9
	VMULPS       Y6, Y9, Y9
	VADDPS       Y9, Y8, Y8
	VBROADCASTSS 12(SI), Y9
	VMULPS       Y7, Y9, Y9
	VADDPS       Y9, Y8, Y8
	VADDPS       Y8, Y0, Y0
	VBROADCASTSS (SI)(R10*1), Y10
	VMULPS       Y4, Y10, Y10
	VBROADCASTSS 4(SI)(R10*1), Y11
	VMULPS       Y5, Y11, Y11
	VADDPS       Y11, Y10, Y10
	VBROADCASTSS 8(SI)(R10*1), Y11
	VMULPS       Y6, Y11, Y11
	VADDPS       Y11, Y10, Y10
	VBROADCASTSS 12(SI)(R10*1), Y11
	VMULPS       Y7, Y11, Y11
	VADDPS       Y11, Y10, Y10
	VADDPS       Y10, Y1, Y1
	VBROADCASTSS (R13), Y12
	VMULPS       Y4, Y12, Y12
	VBROADCASTSS 4(R13), Y13
	VMULPS       Y5, Y13, Y13
	VADDPS       Y13, Y12, Y12
	VBROADCASTSS 8(R13), Y13
	VMULPS       Y6, Y13, Y13
	VADDPS       Y13, Y12, Y12
	VBROADCASTSS 12(R13), Y13
	VMULPS       Y7, Y13, Y13
	VADDPS       Y13, Y12, Y12
	VADDPS       Y12, Y2, Y2
	VBROADCASTSS (R13)(R10*1), Y14
	VMULPS       Y4, Y14, Y14
	VBROADCASTSS 4(R13)(R10*1), Y15
	VMULPS       Y5, Y15, Y15
	VADDPS       Y15, Y14, Y14
	VBROADCASTSS 8(R13)(R10*1), Y15
	VMULPS       Y6, Y15, Y15
	VADDPS       Y15, Y14, Y14
	VBROADCASTSS 12(R13)(R10*1), Y15
	VMULPS       Y7, Y15, Y15
	VADDPS       Y15, Y14, Y14
	VADDPS       Y14, Y3, Y3
	ADDQ         $16, SI
	ADDQ         $16, R13
	LEAQ         (R8)(R9*4), R8
	DECQ         DX
	JNE          t48quad

t48tail:
	TESTQ CX, CX
	JEQ   t48bias

t48tail1:
	VMOVUPS      (R8), Y4
	VBROADCASTSS (SI), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y0, Y0
	VBROADCASTSS (SI)(R10*1), Y9
	VMULPS       Y4, Y9, Y9
	VADDPS       Y9, Y1, Y1
	VBROADCASTSS (R13), Y10
	VMULPS       Y4, Y10, Y10
	VADDPS       Y10, Y2, Y2
	VBROADCASTSS (R13)(R10*1), Y11
	VMULPS       Y4, Y11, Y11
	VADDPS       Y11, Y3, Y3
	ADDQ         $4, SI
	ADDQ         $4, R13
	ADDQ         R9, R8
	DECQ         CX
	JNE          t48tail1

t48bias:
	TESTQ   $2, R12
	JEQ     t48relu
	MOVQ    bias_base+112(FP), DX
	VMOVUPS (DX)(BX*4), Y4
	VADDPS  Y4, Y0, Y0
	VADDPS  Y4, Y1, Y1
	VADDPS  Y4, Y2, Y2
	VADDPS  Y4, Y3, Y3

t48relu:
	// max(0, x) picks x unless 0 > x, so −0 and NaN pass through.
	TESTQ  $4, R12
	JEQ    t48store
	VXORPS Y4, Y4, Y4
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y4, Y1
	VMAXPS Y2, Y4, Y2
	VMAXPS Y3, Y4, Y3

t48store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R11*1)
	VMOVUPS Y2, (R14)
	VMOVUPS Y3, (R14)(R11*1)
	ADDQ    $8, BX
	CMPQ    BX, n+104(FP)
	JLT     t48tile
	VZEROUPPER
	RET

// func tile2x16AVX2(d []float32, sd int, a []float32, sa int, b []float32, sb, k, n int, bias []float32, flags int)
//
// One 2×16 tile per 16 columns, BX its first column. Y0, Y1 accumulate row
// 0's two 8-column halves, Y2, Y3 row 1's; a k-quad builds the four t's in
// Y4..Y7.
TEXT ·tile2x16AVX2(SB), NOSPLIT, $0-144
	MOVQ sd+24(FP), R11
	SHLQ $2, R11
	MOVQ sa+56(FP), R10
	SHLQ $2, R10
	MOVQ sb+88(FP), R9
	SHLQ $2, R9
	MOVQ flags+136(FP), R12
	LEAQ (R9)(R9*2), AX
	XORQ BX, BX

t216tile:
	MOVQ  d_base+0(FP), DI
	LEAQ  (DI)(BX*4), DI
	MOVQ  a_base+32(FP), SI
	MOVQ  b_base+64(FP), R8
	LEAQ  (R8)(BX*4), R8
	MOVQ  k+96(FP), CX
	TESTQ $1, R12
	JNE   t216load
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	JMP   t216k

t216load:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R11*1), Y2
	VMOVUPS 32(DI)(R11*1), Y3

t216k:
	MOVQ CX, DX
	SHRQ $2, DX
	ANDQ $3, CX
	TESTQ DX, DX
	JEQ  t216tail

t216quad:
	PREFETCHT1   64(R8)
	PREFETCHT1   64(R8)(R9*1)
	PREFETCHT1   64(R8)(R9*2)
	PREFETCHT1   64(R8)(AX*1)
	VMOVUPS      (R8), Y8
	VMOVUPS      32(R8), Y9
	VBROADCASTSS (SI), Y10
	VBROADCASTSS (SI)(R10*1), Y11
	VMULPS       Y8, Y10, Y4
	VMULPS       Y9, Y10, Y5
	VMULPS       Y8, Y11, Y6
	VMULPS       Y9, Y11, Y7
	VMOVUPS      (R8)(R9*1), Y8
	VMOVUPS      32(R8)(R9*1), Y9
	VBROADCASTSS 4(SI), Y10
	VBROADCASTSS 4(SI)(R10*1), Y11
	VMULPS       Y8, Y10, Y12
	VADDPS       Y12, Y4, Y4
	VMULPS       Y9, Y10, Y13
	VADDPS       Y13, Y5, Y5
	VMULPS       Y8, Y11, Y14
	VADDPS       Y14, Y6, Y6
	VMULPS       Y9, Y11, Y15
	VADDPS       Y15, Y7, Y7
	VMOVUPS      (R8)(R9*2), Y8
	VMOVUPS      32(R8)(R9*2), Y9
	VBROADCASTSS 8(SI), Y10
	VBROADCASTSS 8(SI)(R10*1), Y11
	VMULPS       Y8, Y10, Y12
	VADDPS       Y12, Y4, Y4
	VMULPS       Y9, Y10, Y13
	VADDPS       Y13, Y5, Y5
	VMULPS       Y8, Y11, Y14
	VADDPS       Y14, Y6, Y6
	VMULPS       Y9, Y11, Y15
	VADDPS       Y15, Y7, Y7
	VMOVUPS      (R8)(AX*1), Y8
	VMOVUPS      32(R8)(AX*1), Y9
	VBROADCASTSS 12(SI), Y10
	VBROADCASTSS 12(SI)(R10*1), Y11
	VMULPS       Y8, Y10, Y12
	VADDPS       Y12, Y4, Y4
	VMULPS       Y9, Y10, Y13
	VADDPS       Y13, Y5, Y5
	VMULPS       Y8, Y11, Y14
	VADDPS       Y14, Y6, Y6
	VMULPS       Y9, Y11, Y15
	VADDPS       Y15, Y7, Y7
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3
	ADDQ         $16, SI
	LEAQ         (R8)(R9*4), R8
	DECQ         DX
	JNE          t216quad

t216tail:
	TESTQ CX, CX
	JEQ   t216bias

t216tail1:
	VMOVUPS      (R8), Y8
	VMOVUPS      32(R8), Y9
	VBROADCASTSS (SI), Y10
	VBROADCASTSS (SI)(R10*1), Y11
	VMULPS       Y8, Y10, Y12
	VADDPS       Y12, Y0, Y0
	VMULPS       Y9, Y10, Y13
	VADDPS       Y13, Y1, Y1
	VMULPS       Y8, Y11, Y14
	VADDPS       Y14, Y2, Y2
	VMULPS       Y9, Y11, Y15
	VADDPS       Y15, Y3, Y3
	ADDQ         $4, SI
	ADDQ         R9, R8
	DECQ         CX
	JNE          t216tail1

t216bias:
	TESTQ   $2, R12
	JEQ     t216relu
	MOVQ    bias_base+112(FP), DX
	VMOVUPS (DX)(BX*4), Y4
	VMOVUPS 32(DX)(BX*4), Y5
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y4, Y2, Y2
	VADDPS  Y5, Y3, Y3

t216relu:
	TESTQ  $4, R12
	JEQ    t216store
	VXORPS Y4, Y4, Y4
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y4, Y1
	VMAXPS Y2, Y4, Y2
	VMAXPS Y3, Y4, Y3

t216store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R11*1)
	VMOVUPS Y3, 32(DI)(R11*1)
	ADDQ    $16, BX
	CMPQ    BX, n+104(FP)
	JLT     t216tile
	VZEROUPPER
	RET

// func tile1x32AVX2(d []float32, sd int, a []float32, sa int, b []float32, sb, k, n int, bias []float32, flags int)
//
// One 1×32 tile per 32 columns, BX its first column. Y0..Y3 accumulate the
// row's four 8-column quarters, a k-quad builds the t's in Y4..Y7 from the
// b rows at R8, R10, R11 and R14 (base-only addresses keep each multiply's
// load fused). The k tail skips zero multipliers (the one-row rule).
TEXT ·tile1x32AVX2(SB), NOSPLIT, $0-144
	MOVQ sb+88(FP), R9
	SHLQ $2, R9
	MOVQ flags+136(FP), R12
	LEAQ (R9*4), R13        // a quad's worth of b rows
	XORQ BX, BX

t132tile:
	MOVQ  d_base+0(FP), DI
	LEAQ  (DI)(BX*4), DI
	MOVQ  a_base+32(FP), SI
	MOVQ  b_base+64(FP), R8
	LEAQ  (R8)(BX*4), R8
	MOVQ  k+96(FP), CX
	TESTQ $1, R12
	JNE   t132load
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	JMP   t132k

t132load:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3

t132k:
	MOVQ  CX, DX
	SHRQ  $2, DX
	ANDQ  $3, CX
	TESTQ DX, DX
	JEQ   t132tail
	LEAQ  (R8)(R9*1), R10
	LEAQ  (R8)(R9*2), R11
	LEAQ  (R10)(R9*2), R14

t132quad:
	PREFETCHT1   128(R8)
	PREFETCHT1   128(R10)
	PREFETCHT1   128(R11)
	PREFETCHT1   128(R14)
	VBROADCASTSS (SI), Y8
	VMULPS       (R8), Y8, Y4
	VMULPS       32(R8), Y8, Y5
	VMULPS       64(R8), Y8, Y6
	VMULPS       96(R8), Y8, Y7
	VBROADCASTSS 4(SI), Y8
	VMULPS       (R10), Y8, Y9
	VADDPS       Y9, Y4, Y4
	VMULPS       32(R10), Y8, Y10
	VADDPS       Y10, Y5, Y5
	VMULPS       64(R10), Y8, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       96(R10), Y8, Y12
	VADDPS       Y12, Y7, Y7
	VBROADCASTSS 8(SI), Y8
	VMULPS       (R11), Y8, Y9
	VADDPS       Y9, Y4, Y4
	VMULPS       32(R11), Y8, Y10
	VADDPS       Y10, Y5, Y5
	VMULPS       64(R11), Y8, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       96(R11), Y8, Y12
	VADDPS       Y12, Y7, Y7
	VBROADCASTSS 12(SI), Y8
	VMULPS       (R14), Y8, Y9
	VADDPS       Y9, Y4, Y4
	VMULPS       32(R14), Y8, Y10
	VADDPS       Y10, Y5, Y5
	VMULPS       64(R14), Y8, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       96(R14), Y8, Y12
	VADDPS       Y12, Y7, Y7
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3
	ADDQ         $16, SI
	ADDQ         R13, R8
	ADDQ         R13, R10
	ADDQ         R13, R11
	ADDQ         R13, R14
	DECQ         DX
	JNE          t132quad

t132tail:
	TESTQ  CX, CX
	JEQ    t132bias
	VXORPS X15, X15, X15

t132tail1:
	VMOVSS   (SI), X8
	VUCOMISS X15, X8
	JNE      t132axpy
	JPS      t132axpy // NaN is not zero
	JMP      t132next

t132axpy:
	VBROADCASTSS X8, Y8
	VMULPS       (R8), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(R8), Y8, Y10
	VADDPS       Y10, Y1, Y1
	VMULPS       64(R8), Y8, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       96(R8), Y8, Y12
	VADDPS       Y12, Y3, Y3

t132next:
	ADDQ $4, SI
	ADDQ R9, R8
	DECQ CX
	JNE  t132tail1

t132bias:
	TESTQ  $2, R12
	JEQ    t132relu
	MOVQ   bias_base+112(FP), DX
	VADDPS (DX)(BX*4), Y0, Y0
	VADDPS 32(DX)(BX*4), Y1, Y1
	VADDPS 64(DX)(BX*4), Y2, Y2
	VADDPS 96(DX)(BX*4), Y3, Y3

t132relu:
	TESTQ  $4, R12
	JEQ    t132store
	VXORPS Y4, Y4, Y4
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y4, Y1
	VMAXPS Y2, Y4, Y2
	VMAXPS Y3, Y4, Y3

t132store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $32, BX
	CMPQ    BX, n+104(FP)
	JLT     t132tile
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

// exp32's constants, each splatted over a 32-byte row (lanes_generic.go
// names them): +0 log2e, +32 C1, +64 C2, +96..+256 P0..P5, +288 1,
// +320 expLo, +352 −Inf.
#define SPLAT(off, bits) \
	DATA expConsts<>+(off+0)(SB)/4, $bits; \
	DATA expConsts<>+(off+4)(SB)/4, $bits; \
	DATA expConsts<>+(off+8)(SB)/4, $bits; \
	DATA expConsts<>+(off+12)(SB)/4, $bits; \
	DATA expConsts<>+(off+16)(SB)/4, $bits; \
	DATA expConsts<>+(off+20)(SB)/4, $bits; \
	DATA expConsts<>+(off+24)(SB)/4, $bits; \
	DATA expConsts<>+(off+28)(SB)/4, $bits

SPLAT(0, 0x3fb8aa3b)
SPLAT(32, 0x3f318000)
SPLAT(64, 0xb95e8083)
SPLAT(96, 0x39506967)
SPLAT(128, 0x3ab743ce)
SPLAT(160, 0x3c088908)
SPLAT(192, 0x3d2aa9c1)
SPLAT(224, 0x3e2aaaaa)
SPLAT(256, 0x3f000000)
SPLAT(288, 0x3f800000)
SPLAT(320, 0xc2aea8f6)
SPLAT(352, 0xff800000)
GLOBL expConsts<>(SB), RODATA|NOPTR, $384

// Eight set lanes then eight clear ones: the 32 bytes ending 4·r bytes
// before +64 set exactly lanes [0, r).
DATA expTailMask<>+0(SB)/8, $-1
DATA expTailMask<>+8(SB)/8, $-1
DATA expTailMask<>+16(SB)/8, $-1
DATA expTailMask<>+24(SB)/8, $-1
DATA expTailMask<>+32(SB)/8, $0
DATA expTailMask<>+40(SB)/8, $0
DATA expTailMask<>+48(SB)/8, $0
DATA expTailMask<>+56(SB)/8, $0
GLOBL expTailMask<>(SB), RODATA|NOPTR, $64

// EXP32 computes Y5 = exp32(Y1 − Y14) lane by lane, one instruction per
// operation of the Go body: n = round-to-even(d·log2e) in Y2 (VROUNDPS
// mode 0), r in Y3, r² in Y4, the polynomial in Y5, then n (converted, so a
// NaN lane adds 0) added to the exponent bits, and the lanes below expLo
// cleared to +0. Y6 is scratch.
#define EXP32 \
	VSUBPS    Y14, Y1, Y1; \
	VMULPS    expConsts<>+0(SB), Y1, Y2; \
	VROUNDPS  $0, Y2, Y2; \
	VMULPS    expConsts<>+32(SB), Y2, Y3; \
	VSUBPS    Y3, Y1, Y3; \
	VMULPS    expConsts<>+64(SB), Y2, Y4; \
	VSUBPS    Y4, Y3, Y3; \
	VMULPS    Y3, Y3, Y4; \
	VMULPS    expConsts<>+96(SB), Y3, Y5; \
	VADDPS    expConsts<>+128(SB), Y5, Y5; \
	VMULPS    Y3, Y5, Y5; \
	VADDPS    expConsts<>+160(SB), Y5, Y5; \
	VMULPS    Y3, Y5, Y5; \
	VADDPS    expConsts<>+192(SB), Y5, Y5; \
	VMULPS    Y3, Y5, Y5; \
	VADDPS    expConsts<>+224(SB), Y5, Y5; \
	VMULPS    Y3, Y5, Y5; \
	VADDPS    expConsts<>+256(SB), Y5, Y5; \
	VMULPS    Y4, Y5, Y5; \
	VADDPS    Y3, Y5, Y5; \
	VADDPS    expConsts<>+288(SB), Y5, Y5; \
	VCVTPS2DQ Y2, Y2; \
	VPSLLD    $23, Y2, Y2; \
	VPADDD    Y2, Y5, Y5; \
	VCMPPS    $1, expConsts<>+320(SB), Y1, Y6; \
	VANDNPS   Y5, Y6, Y5

// func expRowAVX2(x []float32, scale float32) float32
//
// Two passes of eight lanes: the first keeps the running maximum of scale·x
// in Y0 (a NaN never replaces it), the second recomputes scale·x, writes
// exp32(scale·x − m) back and sums it in Y13, lane t mod 8 for element t.
// The last len%8 elements take one masked step in each pass: VMASKMOVPS
// touches only the live lanes Y12 selects, the first pass fills the dead
// lanes with −Inf and the second clears them before the sum, so they add +0.
// The caller passes at least one element.
TEXT ·expRowAVX2(SB), NOSPLIT, $0-36
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSS scale+24(FP), Y15
	MOVQ         CX, DX
	ANDQ         $-8, DX
	MOVQ         CX, AX
	SUBQ         DX, AX
	SHLQ         $2, AX
	LEAQ         expTailMask<>+32(SB), R8
	SUBQ         AX, R8
	VMOVUPS      (R8), Y12
	VMOVUPS      expConsts<>+352(SB), Y0
	XORQ         BX, BX
	CMPQ         BX, DX
	JGE          ermaxtail

ermax:
	VMULPS (DI)(BX*4), Y15, Y1
	VMAXPS Y0, Y1, Y0
	ADDQ   $8, BX
	CMPQ   BX, DX
	JLT    ermax

ermaxtail:
	CMPQ       BX, CX
	JGE        ermaxsum
	VMASKMOVPS (DI)(BX*4), Y12, Y1
	VMULPS     Y15, Y1, Y1
	VMOVUPS    expConsts<>+352(SB), Y2
	VBLENDVPS  Y12, Y1, Y2, Y1
	VMAXPS     Y0, Y1, Y0

ermaxsum:
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VMOVHLPS     X0, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VMAXSS       X1, X0, X0
	VBROADCASTSS X0, Y14
	VXORPS       Y13, Y13, Y13
	XORQ         BX, BX
	CMPQ         BX, DX
	JGE          erexptail

erexp:
	VMULPS  (DI)(BX*4), Y15, Y1
	EXP32
	VMOVUPS Y5, (DI)(BX*4)
	VADDPS  Y5, Y13, Y13
	ADDQ    $8, BX
	CMPQ    BX, DX
	JLT     erexp

erexptail:
	CMPQ       BX, CX
	JGE        ersum
	VMASKMOVPS (DI)(BX*4), Y12, Y1
	VMULPS     Y15, Y1, Y1
	EXP32
	VANDPS     Y12, Y5, Y5
	VMASKMOVPS Y5, Y12, (DI)(BX*4)
	VADDPS     Y5, Y13, Y13

ersum:
	// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
	VEXTRACTF128 $1, Y13, X1
	VADDPS       X1, X13, X13
	VMOVHLPS     X13, X13, X1
	VADDPS       X1, X13, X13
	VMOVSHDUP    X13, X1
	VADDSS       X1, X13, X13
	VMOVSS       X13, ret+32(FP)
	VZEROUPPER
	RET

// func valueRowAVX2(dst, w, v []float32, stride int, s float32)
//
// Columns go in strips of 16, 8, 4 and 1; a strip's accumulators stay in
// registers across the whole key run and are stored once. The caller passes
// at least one key.
TEXT ·valueRowAVX2(SB), NOSPLIT, $0-84
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   w_base+24(FP), SI
	MOVQ   w_len+32(FP), DX
	MOVQ   v_base+48(FP), R8
	MOVQ   stride+72(FP), R9
	SHLQ   $2, R9
	VMOVSS s+80(FP), X15
	XORQ   BX, BX

vr16:
	LEAQ   16(BX), AX
	CMPQ   AX, CX
	JGT    vr8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	LEAQ   (R8)(BX*4), R10
	XORQ   R11, R11

vr16key:
	VMULSS       (SI)(R11*4), X15, X2
	VBROADCASTSS X2, Y2
	VMULPS       (R10), Y2, Y3
	VADDPS       Y3, Y0, Y0
	VMULPS       32(R10), Y2, Y4
	VADDPS       Y4, Y1, Y1
	ADDQ         R9, R10
	INCQ         R11
	CMPQ         R11, DX
	JLT          vr16key
	VMOVUPS      Y0, (DI)(BX*4)
	VMOVUPS      Y1, 32(DI)(BX*4)
	MOVQ         AX, BX
	JMP          vr16

vr8:
	LEAQ   8(BX), AX
	CMPQ   AX, CX
	JGT    vr4
	VXORPS Y0, Y0, Y0
	LEAQ   (R8)(BX*4), R10
	XORQ   R11, R11

vr8key:
	VMULSS       (SI)(R11*4), X15, X2
	VBROADCASTSS X2, Y2
	VMULPS       (R10), Y2, Y3
	VADDPS       Y3, Y0, Y0
	ADDQ         R9, R10
	INCQ         R11
	CMPQ         R11, DX
	JLT          vr8key
	VMOVUPS      Y0, (DI)(BX*4)
	MOVQ         AX, BX

vr4:
	LEAQ   4(BX), AX
	CMPQ   AX, CX
	JGT    vr1
	VXORPS X0, X0, X0
	LEAQ   (R8)(BX*4), R10
	XORQ   R11, R11

vr4key:
	VMULSS       (SI)(R11*4), X15, X2
	VBROADCASTSS X2, X2
	VMULPS       (R10), X2, X3
	VADDPS       X3, X0, X0
	ADDQ         R9, R10
	INCQ         R11
	CMPQ         R11, DX
	JLT          vr4key
	VMOVUPS      X0, (DI)(BX*4)
	MOVQ         AX, BX

vr1:
	CMPQ   BX, CX
	JGE    vrdone
	VXORPS X0, X0, X0
	LEAQ   (R8)(BX*4), R10
	XORQ   R11, R11

vr1key:
	VMULSS (SI)(R11*4), X15, X2
	VMULSS (R10), X2, X3
	VADDSS X3, X0, X0
	ADDQ   R9, R10
	INCQ   R11
	CMPQ   R11, DX
	JLT    vr1key
	VMOVSS X0, (DI)(BX*4)
	INCQ   BX
	JMP    vr1

vrdone:
	VZEROUPPER
	RET
