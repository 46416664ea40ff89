//go:build amd64 && !purego

#include "textflag.h"

// The batch-norm kernels behind BNGroup. Like the other kernels of this
// package they use only AVX1, one VMULPD or VADDPD/VSUBPD per operation
// of the Go twins in batchnorm.go, in the twins' order, so that every lane
// gets the twins' bits. The fused rectifier's pass test is t > 0
// (VCMPPD GT_OQ, false on NaN) and t ≤ hi (LE_OQ); it rectifies with
// min(t, hi) where t > 0 and +0 elsewhere. Where both operands of an add
// or a multiply are NaN, x86 returns the first one's payload. The sums
// are the first operand of their adds (TestBNSumsKeepFirstNaN); Go does
// not pin the operand order of a commutative operation, and each multiply
// here takes the order the optimised twin takes (x̂ first in the output's
// γ·x̂ and in dy·x̂, γ first in the pass test's).
//
// The sum kernels put the group's four channels in the lanes of a vector:
// a 4×4 block of four adjacent elements of each channel's plane loads as
// the low and high halves of four registers and unpacks into four vectors,
// one per element, whose lane k is channel k's; each is added to the sums
// in element order, the sum the first operand. A plane's last 1–3
// elements gather one at a time.

// BLOCK2 loads the element pairs at byte o of the planes at p0 … p3
// (index SI) and unpacks them into e0 and e1, the vectors of the pair's
// two elements. Y2 and Y3 are clobbered.
#define BLOCK2(p0, p1, p2, p3, o, e0, e1) \
	VMOVUPD     o(p0)(SI*1), X2;          \
	VINSERTF128 $1, o(p2)(SI*1), Y2, Y2;  \
	VMOVUPD     o(p1)(SI*1), X3;          \
	VINSERTF128 $1, o(p3)(SI*1), Y3, Y3;  \
	VUNPCKLPD   Y3, Y2, e0;               \
	VUNPCKHPD   Y3, Y2, e1

// GATHER4 loads one element of each of the four planes (index SI) into
// the lanes of e. Y2 and Y3 are clobbered.
#define GATHER4(p0, p1, p2, p3, e) \
	VMOVSD      (p0)(SI*1), X2;    \
	VMOVHPD     (p1)(SI*1), X2, X2; \
	VMOVSD      (p2)(SI*1), X3;    \
	VMOVHPD     (p3)(SI*1), X3, X3; \
	VINSERTF128 $1, X3, Y2, e

// SUMSQ adds the vector v to the sums Y0 and its square to Y1.
#define SUMSQ(v) \
	VADDPD v, Y0, Y0;    \
	VMULPD v, v, Y15;    \
	VADDPD Y15, Y1, Y1

// func bnSumsAVX(acc *[2][4]float64, x *float64, off *[4]int, n, stride, spatial int)
//
// acc[0][k] = Σx and acc[1][k] = Σx² over lane k's planes, from +0 in
// sample-major element order.
//
// Registers: Y0 and Y1 the sums, Y4–Y7 a block's element vectors, R8–R11
// the lanes' planes of the current sample, SI the byte index in a plane,
// AX the blocks (then tail elements) left, BX the tail's length, CX the
// samples left, DX the sample stride in bytes, DI the blocks per plane.
TEXT ·bnSumsAVX(SB), NOSPLIT, $0-48
	MOVQ x+8(FP), SI
	MOVQ off+16(FP), AX
	MOVQ 0(AX), R8
	LEAQ (SI)(R8*8), R8
	MOVQ 8(AX), R9
	LEAQ (SI)(R9*8), R9
	MOVQ 16(AX), R10
	LEAQ (SI)(R10*8), R10
	MOVQ 24(AX), R11
	LEAQ (SI)(R11*8), R11
	MOVQ stride+32(FP), DX
	SHLQ $3, DX
	MOVQ spatial+40(FP), BX
	MOVQ BX, DI
	SHRQ $2, DI
	ANDQ $3, BX
	MOVQ n+24(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

ssample:
	XORQ  SI, SI
	MOVQ  DI, AX
	TESTQ AX, AX
	JZ    stail

sblock:
	BLOCK2(R8, R9, R10, R11, 0, Y4, Y5)
	BLOCK2(R8, R9, R10, R11, 16, Y6, Y7)
	SUMSQ(Y4)
	SUMSQ(Y5)
	SUMSQ(Y6)
	SUMSQ(Y7)
	ADDQ $32, SI
	DECQ AX
	JNZ  sblock

stail:
	MOVQ  BX, AX
	TESTQ AX, AX
	JZ    snext

stailloop:
	GATHER4(R8, R9, R10, R11, Y4)
	SUMSQ(Y4)
	ADDQ $8, SI
	DECQ AX
	JNZ  stailloop

snext:
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	DECQ CX
	JNZ  ssample

	MOVQ    acc+0(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VZEROUPPER
	RET

// XHAT turns the vector v of x into x̂ = (x − mean)·inv, lanes being
// channels or elements as the constants Y8 (mean) and Y9 (inv) are.
#define XHAT(v) \
	VSUBPD Y8, v, v; \
	VMULPD Y9, v, v

// PASS zeroes the lanes of d where the rectifier does not pass
// t = γ·h + β (γ Y10, β Y11, the bound Y12, zero Y13). Y14 and Y15 are
// clobbered.
#define PASS(h, d) \
	VMULPD h, Y10, Y14;         \
	VADDPD Y11, Y14, Y14;       \
	VCMPPD $0x1e, Y13, Y14, Y15; \
	VCMPPD $0x12, Y12, Y14, Y14; \
	VANDPD Y15, Y14, Y14;       \
	VANDPD Y14, d, d

// DSUM adds dy (d) to the sum Y0 and dy·x̂ (h the x̂) to Y1; d is
// clobbered.
#define DSUM(h, d) \
	VADDPD d, Y0, Y0; \
	VMULPD d, h, d;   \
	VADDPD d, Y1, Y1

// func bnGradSumsAVX(acc *[2][4]float64, x, gy *float64, off *[4]int, n, stride, spatial int, lanes *bnLanes, hi float64, rect int)
//
// acc[0][k] = Σdy and acc[1][k] = Σdy·x̂ over lane k's planes, from +0 in
// sample-major element order, with x̂ recomputed from x and dy the
// gradient gy masked by the rectifier's pass test when rect is set.
//
// Registers: as bnSumsAVX's, plus R12–R15 the lanes' gradient planes; Y8–
// Y11 the lanes' mean, inv, γ and β, Y12 the bound, Y13 zero, Y4–Y7 x̂
// and dy of two elements at a time.
TEXT ·bnGradSumsAVX(SB), NOSPLIT, $0-80
	MOVQ  lanes+56(FP), AX
	VMOVUPD 0(AX), Y8
	VMOVUPD 32(AX), Y9
	VMOVUPD 64(AX), Y10
	VMOVUPD 96(AX), Y11
	VBROADCASTSD hi+64(FP), Y12
	VXORPD Y13, Y13, Y13
	MOVQ x+8(FP), SI
	MOVQ gy+16(FP), BX
	SUBQ SI, BX
	MOVQ off+24(FP), AX
	MOVQ 0(AX), R8
	LEAQ (SI)(R8*8), R8
	MOVQ 8(AX), R9
	LEAQ (SI)(R9*8), R9
	MOVQ 16(AX), R10
	LEAQ (SI)(R10*8), R10
	MOVQ 24(AX), R11
	LEAQ (SI)(R11*8), R11
	LEAQ (R8)(BX*1), R12
	LEAQ (R9)(BX*1), R13
	LEAQ (R10)(BX*1), R14
	LEAQ (R11)(BX*1), R15
	MOVQ stride+40(FP), DX
	SHLQ $3, DX
	MOVQ spatial+48(FP), BX
	MOVQ BX, DI
	SHRQ $2, DI
	ANDQ $3, BX
	MOVQ n+32(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

gsample:
	XORQ  SI, SI
	MOVQ  DI, AX
	TESTQ AX, AX
	JZ    gtail
	CMPQ  rect+72(FP), $0
	JEQ   gblockbare

gblock:
	BLOCK2(R8, R9, R10, R11, 0, Y4, Y5)
	BLOCK2(R12, R13, R14, R15, 0, Y6, Y7)
	XHAT(Y4)
	XHAT(Y5)
	PASS(Y4, Y6)
	DSUM(Y4, Y6)
	PASS(Y5, Y7)
	DSUM(Y5, Y7)
	BLOCK2(R8, R9, R10, R11, 16, Y4, Y5)
	BLOCK2(R12, R13, R14, R15, 16, Y6, Y7)
	XHAT(Y4)
	XHAT(Y5)
	PASS(Y4, Y6)
	DSUM(Y4, Y6)
	PASS(Y5, Y7)
	DSUM(Y5, Y7)
	ADDQ $32, SI
	DECQ AX
	JNZ  gblock
	JMP  gtail

gblockbare:
	BLOCK2(R8, R9, R10, R11, 0, Y4, Y5)
	BLOCK2(R12, R13, R14, R15, 0, Y6, Y7)
	XHAT(Y4)
	XHAT(Y5)
	DSUM(Y4, Y6)
	DSUM(Y5, Y7)
	BLOCK2(R8, R9, R10, R11, 16, Y4, Y5)
	BLOCK2(R12, R13, R14, R15, 16, Y6, Y7)
	XHAT(Y4)
	XHAT(Y5)
	DSUM(Y4, Y6)
	DSUM(Y5, Y7)
	ADDQ $32, SI
	DECQ AX
	JNZ  gblockbare

gtail:
	MOVQ  BX, AX
	TESTQ AX, AX
	JZ    gnext

gtailloop:
	GATHER4(R8, R9, R10, R11, Y4)
	XHAT(Y4)
	GATHER4(R12, R13, R14, R15, Y6)
	CMPQ rect+72(FP), $0
	JEQ  gtailsum
	PASS(Y4, Y6)

gtailsum:
	DSUM(Y4, Y6)
	ADDQ $8, SI
	DECQ AX
	JNZ  gtailloop

gnext:
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	ADDQ DX, R12
	ADDQ DX, R13
	ADDQ DX, R14
	ADDQ DX, R15
	DECQ CX
	JNZ  gsample

	MOVQ    acc+0(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VZEROUPPER
	RET

// The element-wise kernels put four adjacent elements of one plane in a
// vector and sweep the whole vectors of the planes of the first nc lanes'
// channels, two vectors at a time, with the lane's constants broadcast:
// sample by sample, so that they walk the group's adjacent planes of a
// sample in address order. The output is usually not in cache, and each
// store would wait for its line, so every pair of vectors prefetches the
// output line 512 bytes ahead; a prefetch never faults, and near a
// plane's end it reaches into the next one or past the batch.

// LANES broadcasts lane 0 of the constant rows at R9 — mean, inv, γ, β
// (the normalise kernel's middle two in the order it multiplies them) —
// into Y8–Y11.
#define LANES \
	VBROADCASTSD 0(R9), Y8;   \
	VBROADCASTSD 32(R9), Y9;  \
	VBROADCASTSD 64(R9), Y10; \
	VBROADCASTSD 96(R9), Y11

// NORM turns the vector v of x into ((x − mean)·Y9)·Y10 + β.
#define NORM(v) \
	VSUBPD Y8, v, v;  \
	VMULPD Y9, v, v;  \
	VMULPD Y10, v, v; \
	VADDPD Y11, v, v

// RECT rectifies v: min(v, hi) where v > 0, +0 elsewhere; t is clobbered.
#define RECT(v, t) \
	VCMPPD $0x1e, Y13, v, t; \
	VMINPD Y12, v, v;        \
	VANDPD t, v, v

// NORM2 and NORM1 write two vectors and one, rectified by R.
#define NORM2(R) \
	PREFETCHT0 512(AX)(DI*1);   \
	VMOVUPD (AX), Y0;           \
	VMOVUPD 32(AX), Y2;         \
	NORM(Y0);                   \
	NORM(Y2);                   \
	R(Y0, Y1);                  \
	R(Y2, Y3);                  \
	VMOVUPD Y0, (AX)(DI*1);     \
	VMOVUPD Y2, 32(AX)(DI*1);   \
	ADDQ    $64, AX

#define NORM1(R) \
	VMOVUPD (AX), Y0;       \
	NORM(Y0);               \
	R(Y0, Y1);              \
	VMOVUPD Y0, (AX)(DI*1)

#define BARE(v, t)

// func bnNormAVX(y, x *float64, off *[4]int, nc, n, stride, nv int, lanes *bnLanes, hi float64, rect int)
//
// y = ((x − mean)·a)·b + β, rectified when rect is set, with lanes' rows
// 1 and 2 as a and b: (inv, γ) for the training output γ·x̂ + β and (γ,
// inv) for the evaluation output (γ·(x − mean))·inv + β.
//
// Registers: AX the vector in x, DI y − x in bytes, SI x at the current
// sample, R8 the offsets, R9 the lane's constants, R10 the lane, R12
// rect, BX the vector pairs left, CX the samples left, DX the sample
// stride in bytes.
TEXT ·bnNormAVX(SB), NOSPLIT, $0-80
	MOVQ x+8(FP), SI
	MOVQ y+0(FP), DI
	SUBQ SI, DI
	MOVQ off+16(FP), R8
	MOVQ stride+40(FP), DX
	SHLQ $3, DX
	MOVQ rect+72(FP), R12
	VBROADCASTSD hi+64(FP), Y12
	VXORPD Y13, Y13, Y13
	MOVQ n+32(FP), CX

nsample:
	MOVQ lanes+56(FP), R9
	XORQ R10, R10

nlane:
	LANES
	MOVQ  (R8)(R10*8), AX
	LEAQ  (SI)(AX*8), AX
	MOVQ  nv+48(FP), BX
	SHRQ  $1, BX
	TESTQ R12, R12
	JZ    nbare
	TESTQ BX, BX
	JZ    nrect1

nrect2:
	NORM2(RECT)
	DECQ BX
	JNZ  nrect2

nrect1:
	TESTQ $1, nv+48(FP)
	JZ    nnext
	NORM1(RECT)
	JMP   nnext

nbare:
	TESTQ BX, BX
	JZ    nbare1

nbare2:
	NORM2(BARE)
	DECQ BX
	JNZ  nbare2

nbare1:
	TESTQ $1, nv+48(FP)
	JZ    nnext
	NORM1(BARE)

nnext:
	ADDQ $8, R9
	INCQ R10
	CMPQ R10, nc+24(FP)
	JLT  nlane
	ADDQ DX, SI
	DECQ CX
	JNZ  nsample
	VZEROUPPER
	RET

// IGRAD turns the vector v of x and g of gy into dx in g, v clobbered:
// dy is g masked by P, then k1·((dy·m − Σdy) − x̂·Σdy·x̂).
#define IGRAD(v, g, P) \
	XHAT(v);          \
	P(v, g);          \
	VMULPD Y5, g, g;  \
	VSUBPD Y6, g, g;  \
	VMULPD Y7, v, v;  \
	VSUBPD v, g, g;   \
	VMULPD Y4, g, g

#define NOPASS(h, d)

// IGRAD2 and IGRAD1 write two vectors and one, masked by P.
#define IGRAD2(P) \
	PREFETCHT0 512(AX)(DI*1);   \
	VMOVUPD (AX), Y0;         \
	VMOVUPD 32(AX), Y2;       \
	VMOVUPD (AX)(R13*1), Y1;  \
	VMOVUPD 32(AX)(R13*1), Y3; \
	IGRAD(Y0, Y1, P);         \
	IGRAD(Y2, Y3, P);         \
	VMOVUPD Y1, (AX)(DI*1);   \
	VMOVUPD Y3, 32(AX)(DI*1); \
	ADDQ    $64, AX

#define IGRAD1(P) \
	VMOVUPD (AX), Y0;        \
	VMOVUPD (AX)(R13*1), Y1; \
	IGRAD(Y0, Y1, P);        \
	VMOVUPD Y1, (AX)(DI*1)

// func bnInputGradAVX(dx, x, gy *float64, off *[4]int, nc, n, stride, nv int, lanes *bnLanes, hi float64, rect int)
//
// dx = k1·((m·dy − Σdy) − x̂·Σdy·x̂), with x̂ recomputed from x and dy the
// gradient gy masked by the rectifier's pass test when rect is set.
//
// Registers: as bnNormAVX's, plus R13 gy − x in bytes; Y4–Y7 the lane's
// k1, m, Σdy and Σdy·x̂.
TEXT ·bnInputGradAVX(SB), NOSPLIT, $0-88
	MOVQ x+8(FP), SI
	MOVQ dx+0(FP), DI
	SUBQ SI, DI
	MOVQ gy+16(FP), R13
	SUBQ SI, R13
	MOVQ off+24(FP), R8
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ rect+80(FP), R12
	VBROADCASTSD hi+72(FP), Y12
	VXORPD Y13, Y13, Y13
	MOVQ n+40(FP), CX

isample:
	MOVQ lanes+64(FP), R9
	XORQ R10, R10

ilane:
	LANES
	VBROADCASTSD 128(R9), Y4
	VBROADCASTSD 160(R9), Y5
	VBROADCASTSD 192(R9), Y6
	VBROADCASTSD 224(R9), Y7
	MOVQ  (R8)(R10*8), AX
	LEAQ  (SI)(AX*8), AX
	MOVQ  nv+56(FP), BX
	SHRQ  $1, BX
	TESTQ R12, R12
	JZ    ibare
	TESTQ BX, BX
	JZ    irect1

irect2:
	IGRAD2(PASS)
	DECQ BX
	JNZ  irect2

irect1:
	TESTQ $1, nv+56(FP)
	JZ    inext
	IGRAD1(PASS)
	JMP   inext

ibare:
	TESTQ BX, BX
	JZ    ibare1

ibare2:
	IGRAD2(NOPASS)
	DECQ BX
	JNZ  ibare2

ibare1:
	TESTQ $1, nv+56(FP)
	JZ    inext
	IGRAD1(NOPASS)

inext:
	ADDQ $8, R9
	INCQ R10
	CMPQ R10, nc+32(FP)
	JLT  ilane
	ADDQ DX, SI
	DECQ CX
	JNZ  isample
	VZEROUPPER
	RET
