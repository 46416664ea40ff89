//go:build amd64 && !purego

#include "textflag.h"

// func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The row kernels below use only AVX1 instructions, with separate
// VMULPD/VADDPD (no FMA contraction) in exactly the association of their
// Go twins in axpy.go, so they are bitwise interchangeable with them.

// Register use shared by the two axpyRows kernels:
//   SI, DI   u0, u1 (scaled A coefficients of the two C rows)
//   CX       kp, the number of k steps
//   BX       B at the current column strip, row 0 of the panel
//   DX       B's row stride in bytes
//   R8, R9   c0, c1 at the current strip
//   R10      columns left
//   R11      B cursor (row p of the strip), AX = p, R12 = pairs left
//   Y8, Y9   u0[p], u0[p+1] broadcast;  Y10, Y11  u1[p], u1[p+1]

// PAIR2 adds one k pair to four columns of both rows:
// a0 += u0[p]*b[p] + u0[p+1]*b[p+1];  a1 += u1[p]*b[p] + u1[p+1]*b[p+1].
#define PAIR2(off, a0, a1) \
	VMOVUPD off(R11), Y12; \
	VMOVUPD off(R11)(DX*1), Y13; \
	VMULPD  Y12, Y8, Y14; \
	VMULPD  Y13, Y9, Y15; \
	VADDPD  Y15, Y14, Y14; \
	VADDPD  Y14, a0, a0; \
	VMULPD  Y12, Y10, Y14; \
	VMULPD  Y13, Y11, Y15; \
	VADDPD  Y15, Y14, Y14; \
	VADDPD  Y14, a1, a1

// LAST2 adds the single trailing k step: a0 += u0[p]*b[p]; a1 += u1[p]*b[p].
#define LAST2(off, a0, a1) \
	VMOVUPD off(R11), Y12; \
	VMULPD  Y12, Y8, Y14; \
	VADDPD  Y14, a0, a0; \
	VMULPD  Y12, Y10, Y14; \
	VADDPD  Y14, a1, a1

// PAIR1 and LAST1 are the one-row forms.
#define PAIR1(off, a0) \
	VMOVUPD off(R11), Y12; \
	VMOVUPD off(R11)(DX*1), Y13; \
	VMULPD  Y12, Y8, Y14; \
	VMULPD  Y13, Y9, Y15; \
	VADDPD  Y15, Y14, Y14; \
	VADDPD  Y14, a0, a0

#define LAST1(off, a0) \
	VMOVUPD off(R11), Y12; \
	VMULPD  Y12, Y8, Y14; \
	VADDPD  Y14, a0, a0

// func axpyRows2AVX(u0, u1 *float64, kp int, b *float64, ldb int, c0, c1 *float64, n int)
//
// For j in [0,n), n a multiple of 4: c0[j] and c1[j] each accumulate the
// whole k panel — pairs (p, p+1) in order, then the single trailing step
// when kp is odd — with the C strip held in registers across k: sixteen
// columns per strip while they last, then four.
TEXT ·axpyRows2AVX(SB), NOSPLIT, $0-64
	MOVQ u0+0(FP), SI
	MOVQ u1+8(FP), DI
	MOVQ kp+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ ldb+32(FP), DX
	SHLQ $3, DX
	MOVQ c0+40(FP), R8
	MOVQ c1+48(FP), R9
	MOVQ n+56(FP), R10

r2strip16:
	CMPQ R10, $16
	JLT  r2strip4
	VMOVUPD 0(R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	VMOVUPD 0(R9), Y4
	VMOVUPD 32(R9), Y5
	VMOVUPD 64(R9), Y6
	VMOVUPD 96(R9), Y7
	MOVQ BX, R11
	XORQ AX, AX
	MOVQ CX, R12
	SHRQ $1, R12
	JZ   r2last16

r2pair16:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VBROADCASTSD 0(DI)(AX*8), Y10
	VBROADCASTSD 8(DI)(AX*8), Y11
	PAIR2(0, Y0, Y4)
	PAIR2(32, Y1, Y5)
	PAIR2(64, Y2, Y6)
	PAIR2(96, Y3, Y7)
	ADDQ $2, AX
	LEAQ (R11)(DX*2), R11
	DECQ R12
	JNZ  r2pair16

r2last16:
	TESTQ $1, CX
	JZ    r2store16
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 0(DI)(AX*8), Y10
	LAST2(0, Y0, Y4)
	LAST2(32, Y1, Y5)
	LAST2(64, Y2, Y6)
	LAST2(96, Y3, Y7)

r2store16:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VMOVUPD Y4, 0(R9)
	VMOVUPD Y5, 32(R9)
	VMOVUPD Y6, 64(R9)
	VMOVUPD Y7, 96(R9)
	ADDQ $128, BX
	ADDQ $128, R8
	ADDQ $128, R9
	SUBQ $16, R10
	JMP  r2strip16

r2strip4:
	CMPQ R10, $4
	JLT  r2done
	VMOVUPD 0(R8), Y0
	VMOVUPD 0(R9), Y4
	MOVQ BX, R11
	XORQ AX, AX
	MOVQ CX, R12
	SHRQ $1, R12
	JZ   r2last4

r2pair4:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VBROADCASTSD 0(DI)(AX*8), Y10
	VBROADCASTSD 8(DI)(AX*8), Y11
	PAIR2(0, Y0, Y4)
	ADDQ $2, AX
	LEAQ (R11)(DX*2), R11
	DECQ R12
	JNZ  r2pair4

r2last4:
	TESTQ $1, CX
	JZ    r2store4
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 0(DI)(AX*8), Y10
	LAST2(0, Y0, Y4)

r2store4:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y4, 0(R9)
	ADDQ $32, BX
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, R10
	JMP  r2strip4

r2done:
	VZEROUPPER
	RET

// func axpyRows1AVX(u0 *float64, kp int, b *float64, ldb int, c0 *float64, n int)
//
// The one-row form of axpyRows2AVX, for the last row of an odd block.
TEXT ·axpyRows1AVX(SB), NOSPLIT, $0-48
	MOVQ u0+0(FP), SI
	MOVQ kp+8(FP), CX
	MOVQ b+16(FP), BX
	MOVQ ldb+24(FP), DX
	SHLQ $3, DX
	MOVQ c0+32(FP), R8
	MOVQ n+40(FP), R10

r1strip16:
	CMPQ R10, $16
	JLT  r1strip4
	VMOVUPD 0(R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	MOVQ BX, R11
	XORQ AX, AX
	MOVQ CX, R12
	SHRQ $1, R12
	JZ   r1last16

r1pair16:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	PAIR1(0, Y0)
	PAIR1(32, Y1)
	PAIR1(64, Y2)
	PAIR1(96, Y3)
	ADDQ $2, AX
	LEAQ (R11)(DX*2), R11
	DECQ R12
	JNZ  r1pair16

r1last16:
	TESTQ $1, CX
	JZ    r1store16
	VBROADCASTSD 0(SI)(AX*8), Y8
	LAST1(0, Y0)
	LAST1(32, Y1)
	LAST1(64, Y2)
	LAST1(96, Y3)

r1store16:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	ADDQ $128, BX
	ADDQ $128, R8
	SUBQ $16, R10
	JMP  r1strip16

r1strip4:
	CMPQ R10, $4
	JLT  r1done
	VMOVUPD 0(R8), Y0
	MOVQ BX, R11
	XORQ AX, AX
	MOVQ CX, R12
	SHRQ $1, R12
	JZ   r1last4

r1pair4:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	PAIR1(0, Y0)
	ADDQ $2, AX
	LEAQ (R11)(DX*2), R11
	DECQ R12
	JNZ  r1pair4

r1last4:
	TESTQ $1, CX
	JZ    r1store4
	VBROADCASTSD 0(SI)(AX*8), Y8
	LAST1(0, Y0)

r1store4:
	VMOVUPD Y0, 0(R8)
	ADDQ $32, BX
	ADDQ $32, R8
	SUBQ $4, R10
	JMP  r1strip4

r1done:
	VZEROUPPER
	RET

// Register use shared by the two dotRows kernels:
//   SI, DI   a0, a1 (the two A rows)      CX   k      R12  k &^ 15
//   BX       the current B row            R11  k*8    R10  B rows left
//   R8, R9   c0, c1 at the current B row  X14  alpha  AX   p

// STRIPE2 adds four products to one of the four striped partial sums of
// each A row; STRIPE1 is the one-row form.
#define STRIPE2(off, s0, s1) \
	VMOVUPD off(BX)(AX*8), Y8; \
	VMULPD  off(SI)(AX*8), Y8, Y9; \
	VADDPD  Y9, s0, s0; \
	VMULPD  off(DI)(AX*8), Y8, Y10; \
	VADDPD  Y10, s1, s1

#define STRIPE1(off, s0) \
	VMOVUPD off(BX)(AX*8), Y8; \
	VMULPD  off(SI)(AX*8), Y8, Y9; \
	VADDPD  Y9, s0, s0

// FOLD reduces the 16 striped partials held lanewise in a, b, c, d to the
// scalar ((t0+t1)+(t2+t3)) with t[l] = (s[l]+s[l+4]) + (s[l+8]+s[l+12]),
// left in the low lane of a's X register (xa); xt is a temporary.
#define FOLD(a, b, c, d, xa, xt) \
	VADDPD b, a, a; \
	VADDPD d, c, c; \
	VADDPD c, a, a; \
	VEXTRACTF128 $1, a, xt; \
	VHADDPD xt, xa, xa; \
	VUNPCKHPD xa, xa, xt; \
	VADDSD xt, xa, xa

// func dotRows2AVX(a0, a1 *float64, k int, b *float64, nb int, alpha float64, c0, c1 *float64)
//
// For each of the nb rows b_j of B (k elements apiece, contiguous):
// c0[j] += alpha*dot(a0, b_j) and c1[j] += alpha*dot(a1, b_j), where dot
// is the fixed reduction tree of the Go twin: 16 striped partials folded
// to one scalar, then the k%16 tail added sequentially.
TEXT ·dotRows2AVX(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ nb+32(FP), R10
	VMOVSD alpha+40(FP), X14
	MOVQ c0+48(FP), R8
	MOVQ c1+56(FP), R9
	MOVQ CX, R12
	ANDQ $-16, R12
	MOVQ CX, R11
	SHLQ $3, R11

d2row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ AX, AX
	CMPQ AX, R12
	JGE  d2fold

d2loop:
	STRIPE2(0, Y0, Y4)
	STRIPE2(32, Y1, Y5)
	STRIPE2(64, Y2, Y6)
	STRIPE2(96, Y3, Y7)
	ADDQ $16, AX
	CMPQ AX, R12
	JLT  d2loop

d2fold:
	FOLD(Y0, Y1, Y2, Y3, X0, X8)
	FOLD(Y4, Y5, Y6, Y7, X4, X8)
	CMPQ AX, CX
	JGE  d2out

d2tail:
	VMOVSD (BX)(AX*8), X8
	VMULSD (SI)(AX*8), X8, X9
	VADDSD X9, X0, X0
	VMULSD (DI)(AX*8), X8, X9
	VADDSD X9, X4, X4
	INCQ AX
	CMPQ AX, CX
	JLT  d2tail

d2out:
	VMULSD X14, X0, X0
	VADDSD (R8), X0, X0
	VMOVSD X0, (R8)
	VMULSD X14, X4, X4
	VADDSD (R9), X4, X4
	VMOVSD X4, (R9)
	ADDQ R11, BX
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ R10
	JNZ  d2row
	VZEROUPPER
	RET

// func dotRows1AVX(a0 *float64, k int, b *float64, nb int, alpha float64, c0 *float64)
//
// The one-row form of dotRows2AVX.
TEXT ·dotRows1AVX(SB), NOSPLIT, $0-48
	MOVQ a0+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ b+16(FP), BX
	MOVQ nb+24(FP), R10
	VMOVSD alpha+32(FP), X14
	MOVQ c0+40(FP), R8
	MOVQ CX, R12
	ANDQ $-16, R12
	MOVQ CX, R11
	SHLQ $3, R11

d1row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	CMPQ AX, R12
	JGE  d1fold

d1loop:
	STRIPE1(0, Y0)
	STRIPE1(32, Y1)
	STRIPE1(64, Y2)
	STRIPE1(96, Y3)
	ADDQ $16, AX
	CMPQ AX, R12
	JLT  d1loop

d1fold:
	FOLD(Y0, Y1, Y2, Y3, X0, X8)
	CMPQ AX, CX
	JGE  d1out

d1tail:
	VMOVSD (BX)(AX*8), X8
	VMULSD (SI)(AX*8), X8, X9
	VADDSD X9, X0, X0
	INCQ AX
	CMPQ AX, CX
	JLT  d1tail

d1out:
	VMULSD X14, X0, X0
	VADDSD (R8), X0, X0
	VMOVSD X0, (R8)
	ADDQ R11, BX
	ADDQ $8, R8
	DECQ R10
	JNZ  d1row
	VZEROUPPER
	RET
