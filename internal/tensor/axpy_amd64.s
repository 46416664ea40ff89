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
// Their inner loops start on 32-byte boundaries (PCALIGN), so that an
// edit elsewhere in the file does not move a loop's branches across the
// boundaries some cores' decoders penalise.

// Register use of axpyRows2AVX:
//   SI, DI   u0, u1 (scaled A coefficients of the two C rows)
//   CX       kp, the number of k steps
//   DX       taps, the element offset of each B row from a segment's base;
//            for a dense panel (taps nil), B's row stride in bytes
//   R11      B at the current segment's base
//   BX       B at the current column strip of the segment
//   R8, R9   c0, c1 at the current strip
//   R10      columns left in the segment
//   AX = p, R12 = pairs left, R13 and R14 = B rows p and p+1 at the strip
//   Y8, Y9   u0[p], u0[p+1] broadcast;  Y10, Y11  u1[p], u1[p+1]

// ROWS2AT points R13 and R14 at B rows p and p+1 of the strip whose
// base is in base; ROW1AT points R13 at row p, for the trailing k step.
#define ROWS2AT(base) \
	MOVQ 0(DX)(AX*8), R13; \
	MOVQ 8(DX)(AX*8), R14; \
	LEAQ (base)(R13*8), R13; \
	LEAQ (base)(R14*8), R14

#define ROW1AT(base) \
	MOVQ 0(DX)(AX*8), R13; \
	LEAQ (base)(R13*8), R13

// PAIR2 adds one k pair to four columns of both rows:
// a0 += u0[p]*b[p] + u0[p+1]*b[p+1];  a1 += u1[p]*b[p] + u1[p+1]*b[p+1].
#define PAIR2(off, a0, a1) \
	VMOVUPD off(R13), Y12; \
	VMOVUPD off(R14), Y13; \
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
	VMOVUPD off(R13), Y12; \
	VMULPD  Y12, Y8, Y14; \
	VADDPD  Y14, a0, a0; \
	VMULPD  Y12, Y10, Y14; \
	VADDPD  Y14, a1, a1

// PAIR2M and LAST2M are PAIR2 and LAST2 with B's four columns loaded from
// m0 (row p) and m1 (row p+1).
#define PAIR2M(m0, m1, a0, a1) \
	VMOVUPD m0, Y12; \
	VMOVUPD m1, Y13; \
	VMULPD  Y12, Y8, Y14; \
	VMULPD  Y13, Y9, Y15; \
	VADDPD  Y15, Y14, Y14; \
	VADDPD  Y14, a0, a0; \
	VMULPD  Y12, Y10, Y14; \
	VMULPD  Y13, Y11, Y15; \
	VADDPD  Y15, Y14, Y14; \
	VADDPD  Y14, a1, a1

#define LAST2M(m0, a0, a1) \
	VMOVUPD m0, Y12; \
	VMULPD  Y12, Y8, Y14; \
	VADDPD  Y14, a0, a0; \
	VMULPD  Y12, Y10, Y14; \
	VADDPD  Y14, a1, a1

// func axpyRows2AVX(u0, u1 *float64, kp int, b *float64, taps *int, ldb int, c0, c1 *float64, ldc, n, segs, mode int)
//
// For each of segs segments — B's ldb elements after the previous one,
// C's ldc — and j in [0,n), n a multiple of 4: c0[j] and c1[j] each
// take the whole k panel — pairs (p, p+1) in order, then the single
// trailing step when kp is odd — with the strip held in registers across
// k: sixteen columns per strip while they last, then four. Segments of 8
// or 4 columns go two or four to a strip instead, while that many
// remain, so that each broadcast coefficient still meets four vectors of
// B. mode is a cmode: addTo (0) starts the strip from C, writeTo (1) from
// +0, and foldInto (2) from +0 and adds C to it before the store. Every
// strip loads (or adds) both rows' C before it stores either, so c0 = c1
// with u0 = u1 is a lone row, paired with itself in place.
TEXT ·axpyRows2AVX(SB), NOSPLIT, $0-96
	MOVQ u0+0(FP), SI
	MOVQ u1+8(FP), DI
	MOVQ kp+16(FP), CX
	MOVQ b+24(FP), R11
	MOVQ taps+32(FP), DX
	MOVQ c0+48(FP), R8
	MOVQ c1+56(FP), R9
	TESTQ DX, DX
	JNZ  r2tapped
	MOVQ ldb+40(FP), DX
	SHLQ $3, DX
	JMP  r2seg

r2tapped:
	MOVQ n+72(FP), R10
	CMPQ R10, $8
	JEQ  r2n8
	CMPQ R10, $4
	JEQ  r2n4

r2seg:
	MOVQ R11, BX
	MOVQ n+72(FP), R10

r2strip16:
	CMPQ R10, $16
	JLT  r2strip4
	CMPQ mode+88(FP), $0
	JNE  r2zero16
	VMOVUPD 0(R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	VMOVUPD 0(R9), Y4
	VMOVUPD 32(R9), Y5
	VMOVUPD 64(R9), Y6
	VMOVUPD 96(R9), Y7
	JMP  r2k16

r2zero16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

r2k16:
	XORQ AX, AX
	MOVQ CX, R12
	SHRQ $1, R12
	CMPQ taps+32(FP), $0
	JEQ  r2d16
	TESTQ R12, R12
	JZ   r2last16

	PCALIGN $32

r2pair16:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VBROADCASTSD 0(DI)(AX*8), Y10
	VBROADCASTSD 8(DI)(AX*8), Y11
	ROWS2AT(BX)
	PAIR2(0, Y0, Y4)
	PAIR2(32, Y1, Y5)
	PAIR2(64, Y2, Y6)
	PAIR2(96, Y3, Y7)
	ADDQ $2, AX
	DECQ R12
	JNZ  r2pair16

r2last16:
	TESTQ $1, CX
	JZ    r2store16
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 0(DI)(AX*8), Y10
	ROW1AT(BX)
	LAST2(0, Y0, Y4)
	LAST2(32, Y1, Y5)
	LAST2(64, Y2, Y6)
	LAST2(96, Y3, Y7)

r2store16:
	CMPQ mode+88(FP), $2
	JNE  r2put16
	VADDPD 0(R8), Y0, Y0
	VADDPD 32(R8), Y1, Y1
	VADDPD 64(R8), Y2, Y2
	VADDPD 96(R8), Y3, Y3
	VADDPD 0(R9), Y4, Y4
	VADDPD 32(R9), Y5, Y5
	VADDPD 64(R9), Y6, Y6
	VADDPD 96(R9), Y7, Y7

r2put16:
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
	JLT  r2segend
	CMPQ mode+88(FP), $0
	JNE  r2zero4
	VMOVUPD 0(R8), Y0
	VMOVUPD 0(R9), Y4
	JMP  r2k4

r2zero4:
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4

r2k4:
	XORQ AX, AX
	MOVQ CX, R12
	SHRQ $1, R12
	CMPQ taps+32(FP), $0
	JEQ  r2d4
	TESTQ R12, R12
	JZ   r2last4

	PCALIGN $32

r2pair4:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VBROADCASTSD 0(DI)(AX*8), Y10
	VBROADCASTSD 8(DI)(AX*8), Y11
	ROWS2AT(BX)
	PAIR2(0, Y0, Y4)
	ADDQ $2, AX
	DECQ R12
	JNZ  r2pair4

r2last4:
	TESTQ $1, CX
	JZ    r2store4
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 0(DI)(AX*8), Y10
	ROW1AT(BX)
	LAST2(0, Y0, Y4)

r2store4:
	CMPQ mode+88(FP), $2
	JNE  r2put4
	VADDPD 0(R8), Y0, Y0
	VADDPD 0(R9), Y4, Y4

r2put4:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y4, 0(R9)
	ADDQ $32, BX
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, R10
	JMP  r2strip4

// A dense panel (no taps): B row p is p rows of DX bytes past the strip.
r2d16:
	MOVQ BX, R13
	TESTQ R12, R12
	JZ   r2d16last

	PCALIGN $32

r2d16pair:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VBROADCASTSD 0(DI)(AX*8), Y10
	VBROADCASTSD 8(DI)(AX*8), Y11
	LEAQ (R13)(DX*1), R14
	PAIR2(0, Y0, Y4)
	PAIR2(32, Y1, Y5)
	PAIR2(64, Y2, Y6)
	PAIR2(96, Y3, Y7)
	ADDQ $2, AX
	LEAQ (R13)(DX*2), R13
	DECQ R12
	JNZ  r2d16pair

r2d16last:
	TESTQ $1, CX
	JZ    r2store16
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 0(DI)(AX*8), Y10
	LAST2(0, Y0, Y4)
	LAST2(32, Y1, Y5)
	LAST2(64, Y2, Y6)
	LAST2(96, Y3, Y7)
	JMP   r2store16

r2d4:
	MOVQ BX, R13
	TESTQ R12, R12
	JZ   r2d4last

	PCALIGN $32

r2d4pair:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VBROADCASTSD 0(DI)(AX*8), Y10
	VBROADCASTSD 8(DI)(AX*8), Y11
	LEAQ (R13)(DX*1), R14
	PAIR2(0, Y0, Y4)
	ADDQ $2, AX
	LEAQ (R13)(DX*2), R13
	DECQ R12
	JNZ  r2d4pair

r2d4last:
	TESTQ $1, CX
	JZ    r2store4
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 0(DI)(AX*8), Y10
	LAST2(0, Y0, Y4)
	JMP   r2store4

r2segend:
	// C steps over the segment's columns past n, B to its next segment.
	MOVQ ldc+64(FP), R12
	SUBQ n+72(FP), R12
	LEAQ (R8)(R12*8), R8
	LEAQ (R9)(R12*8), R9
	MOVQ ldb+40(FP), R12
	LEAQ (R11)(R12*8), R11
	DECQ segs+80(FP)
	JNZ  r2seg

r2done:
	VZEROUPPER
	RET

// Two 8-column segments per strip: R10 = B's segment stride in bytes,
// R13 C's outside the k loop.
r2n8:
	CMPQ segs+80(FP), $2
	JLT  r2seg
	MOVQ ldb+40(FP), R10
	SHLQ $3, R10
	MOVQ ldc+64(FP), R13
	SHLQ $3, R13
	CMPQ mode+88(FP), $0
	JNE  r2n8zero
	VMOVUPD 0(R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD (R8)(R13*1), Y2
	VMOVUPD 32(R8)(R13*1), Y3
	VMOVUPD 0(R9), Y4
	VMOVUPD 32(R9), Y5
	VMOVUPD (R9)(R13*1), Y6
	VMOVUPD 32(R9)(R13*1), Y7
	JMP  r2n8k

r2n8zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

r2n8k:
	XORQ AX, AX
	MOVQ CX, R12
	SHRQ $1, R12
	JZ   r2n8last

	PCALIGN $32

r2n8pair:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VBROADCASTSD 0(DI)(AX*8), Y10
	VBROADCASTSD 8(DI)(AX*8), Y11
	ROWS2AT(R11)
	PAIR2M(0(R13), 0(R14), Y0, Y4)
	PAIR2M(32(R13), 32(R14), Y1, Y5)
	PAIR2M((R13)(R10*1), (R14)(R10*1), Y2, Y6)
	PAIR2M(32(R13)(R10*1), 32(R14)(R10*1), Y3, Y7)
	ADDQ $2, AX
	DECQ R12
	JNZ  r2n8pair

r2n8last:
	TESTQ $1, CX
	JZ    r2n8store
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 0(DI)(AX*8), Y10
	ROW1AT(R11)
	LAST2M(0(R13), Y0, Y4)
	LAST2M(32(R13), Y1, Y5)
	LAST2M((R13)(R10*1), Y2, Y6)
	LAST2M(32(R13)(R10*1), Y3, Y7)

r2n8store:
	MOVQ ldc+64(FP), R13
	SHLQ $3, R13
	CMPQ mode+88(FP), $2
	JNE  r2n8put
	VADDPD 0(R8), Y0, Y0
	VADDPD 32(R8), Y1, Y1
	VADDPD (R8)(R13*1), Y2, Y2
	VADDPD 32(R8)(R13*1), Y3, Y3
	VADDPD 0(R9), Y4, Y4
	VADDPD 32(R9), Y5, Y5
	VADDPD (R9)(R13*1), Y6, Y6
	VADDPD 32(R9)(R13*1), Y7, Y7

r2n8put:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, (R8)(R13*1)
	VMOVUPD Y3, 32(R8)(R13*1)
	VMOVUPD Y4, 0(R9)
	VMOVUPD Y5, 32(R9)
	VMOVUPD Y6, (R9)(R13*1)
	VMOVUPD Y7, 32(R9)(R13*1)
	LEAQ (R8)(R13*2), R8
	LEAQ (R9)(R13*2), R9
	LEAQ (R11)(R10*2), R11
	SUBQ $2, segs+80(FP)
	JNZ  r2n8
	JMP  r2done

// Four 4-column segments per strip: R10 and BX = B's segment stride and
// three times it, in bytes; R13 and R14 C's outside the k loop.
r2n4:
	CMPQ segs+80(FP), $4
	JLT  r2seg
	MOVQ ldb+40(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), BX
	MOVQ ldc+64(FP), R13
	SHLQ $3, R13
	LEAQ (R13)(R13*2), R14
	CMPQ mode+88(FP), $0
	JNE  r2n4zero
	VMOVUPD 0(R8), Y0
	VMOVUPD (R8)(R13*1), Y1
	VMOVUPD (R8)(R13*2), Y2
	VMOVUPD (R8)(R14*1), Y3
	VMOVUPD 0(R9), Y4
	VMOVUPD (R9)(R13*1), Y5
	VMOVUPD (R9)(R13*2), Y6
	VMOVUPD (R9)(R14*1), Y7
	JMP  r2n4k

r2n4zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

r2n4k:
	XORQ AX, AX
	MOVQ CX, R12
	SHRQ $1, R12
	JZ   r2n4last

	PCALIGN $32

r2n4pair:
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 8(SI)(AX*8), Y9
	VBROADCASTSD 0(DI)(AX*8), Y10
	VBROADCASTSD 8(DI)(AX*8), Y11
	ROWS2AT(R11)
	PAIR2M(0(R13), 0(R14), Y0, Y4)
	PAIR2M((R13)(R10*1), (R14)(R10*1), Y1, Y5)
	PAIR2M((R13)(R10*2), (R14)(R10*2), Y2, Y6)
	PAIR2M((R13)(BX*1), (R14)(BX*1), Y3, Y7)
	ADDQ $2, AX
	DECQ R12
	JNZ  r2n4pair

r2n4last:
	TESTQ $1, CX
	JZ    r2n4store
	VBROADCASTSD 0(SI)(AX*8), Y8
	VBROADCASTSD 0(DI)(AX*8), Y10
	ROW1AT(R11)
	LAST2M(0(R13), Y0, Y4)
	LAST2M((R13)(R10*1), Y1, Y5)
	LAST2M((R13)(R10*2), Y2, Y6)
	LAST2M((R13)(BX*1), Y3, Y7)

r2n4store:
	MOVQ ldc+64(FP), R13
	SHLQ $3, R13
	LEAQ (R13)(R13*2), R14
	CMPQ mode+88(FP), $2
	JNE  r2n4put
	VADDPD 0(R8), Y0, Y0
	VADDPD (R8)(R13*1), Y1, Y1
	VADDPD (R8)(R13*2), Y2, Y2
	VADDPD (R8)(R14*1), Y3, Y3
	VADDPD 0(R9), Y4, Y4
	VADDPD (R9)(R13*1), Y5, Y5
	VADDPD (R9)(R13*2), Y6, Y6
	VADDPD (R9)(R14*1), Y7, Y7

r2n4put:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, (R8)(R13*1)
	VMOVUPD Y2, (R8)(R13*2)
	VMOVUPD Y3, (R8)(R14*1)
	VMOVUPD Y4, 0(R9)
	VMOVUPD Y5, (R9)(R13*1)
	VMOVUPD Y6, (R9)(R13*2)
	VMOVUPD Y7, (R9)(R14*1)
	LEAQ (R8)(R13*4), R8
	LEAQ (R9)(R13*4), R9
	LEAQ (R11)(R10*4), R11
	SUBQ $4, segs+80(FP)
	JNZ  r2n4
	JMP  r2done

// dotPanel2AVX is the one dot kernel. B_j starts at taps[j] elements
// into b and runs in segments of n elements, skip elements apart; a dense
// GEMM row is one segment of n = k. A B cursor walks the segments, and
// the count of elements left in the current segment says when it jumps;
// n is a multiple of 4 or there is one segment, so no load of four
// straddles a jump. The stripe loop is chosen once per call, by n, and
// each has its own row loop: blocks of sixteen at fixed offsets from the
// cursor when a block lies in one segment (n a multiple of 16, or one
// segment) or spans two or four whole ones (n = 8 or 4); otherwise groups
// of four, with a jump check after each.
//
// Register use:
//   SI, DI   a0, a1                       CX   k      R12  k &^ 15
//   R11      b                            DX   taps   R10  B rows left
//   BX       the B cursor                 R13  elements left in its segment
//   R8, R9   c0, c1 at the current B row  AX   p      R14  scratch
//   R15      B's segment stride in bytes  X14  alpha
//   X13      the mask C is added through: all ones, or +0 when first is set

// GROUP2 adds the four products at the B cursor to the striped partial
// sums s0, s1 and moves the cursor on by four. It is followed by
// NEXTSEG, which jumps the cursor to the next segment when the current
// one is used up.
#define GROUP2(off, s0, s1) \
	VMOVUPD (BX), Y8; \
	VMULPD  off(SI)(AX*8), Y8, Y9; \
	VADDPD  Y9, s0, s0; \
	VMULPD  off(DI)(AX*8), Y8, Y10; \
	VADDPD  Y10, s1, s1; \
	ADDQ    $32, BX; \
	SUBQ    $4, R13

#define NEXTSEG(skip, n) \
	MOVQ skip, R14; \
	LEAQ (BX)(R14*8), BX; \
	MOVQ n, R13

// BLOCK2 adds the sixteen products of one stripe block to the partial
// sums of both A rows, B's four groups of four loaded from m0…m3.
#define BLOCK2(m0, m1, m2, m3) \
	VMOVUPD m0, Y8; \
	VMULPD  0(SI)(AX*8), Y8, Y9; \
	VADDPD  Y9, Y0, Y0; \
	VMULPD  0(DI)(AX*8), Y8, Y10; \
	VADDPD  Y10, Y4, Y4; \
	VMOVUPD m1, Y8; \
	VMULPD  32(SI)(AX*8), Y8, Y9; \
	VADDPD  Y9, Y1, Y1; \
	VMULPD  32(DI)(AX*8), Y8, Y10; \
	VADDPD  Y10, Y5, Y5; \
	VMOVUPD m2, Y8; \
	VMULPD  64(SI)(AX*8), Y8, Y9; \
	VADDPD  Y9, Y2, Y2; \
	VMULPD  64(DI)(AX*8), Y8, Y10; \
	VADDPD  Y10, Y6, Y6; \
	VMOVUPD m3, Y8; \
	VMULPD  96(SI)(AX*8), Y8, Y9; \
	VADDPD  Y9, Y3, Y3; \
	VMULPD  96(DI)(AX*8), Y8, Y10; \
	VADDPD  Y10, Y7, Y7

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

// ROWINIT starts a B row: the cursor at B_j, n elements left in its
// segment, the partial sums and p cleared; with no stripe block (k < 16)
// it goes straight to fin.
#define ROWINIT(n, fin) \
	MOVQ (DX), R14; \
	LEAQ (R11)(R14*8), BX; \
	ADDQ $8, DX; \
	MOVQ n, R13; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	XORQ AX, AX; \
	CMPQ AX, R12; \
	JGE  fin

// FINISH folds both rows' partials, adds the k%16 tail one product at a
// time, stores alpha·sum + C (C through the mask X13) to c0 and c1, both
// C elements loaded before either is stored so that c0 = c1 with a0 = a1
// is a lone row paired with itself, and goes on to the next B row at
// row, or returns. tail, tnext and out are its labels.
#define FINISH(skip, n, tail, tnext, out, row) \
	FOLD(Y0, Y1, Y2, Y3, X0, X8); \
	FOLD(Y4, Y5, Y6, Y7, X4, X8); \
	CMPQ AX, CX; \
	JGE  out; \
tail: \
	VMOVSD (BX), X8; \
	VMULSD (SI)(AX*8), X8, X9; \
	VADDSD X9, X0, X0; \
	VMULSD (DI)(AX*8), X8, X9; \
	VADDSD X9, X4, X4; \
	ADDQ $8, BX; \
	DECQ R13; \
	JNZ  tnext; \
	NEXTSEG(skip, n); \
tnext: \
	INCQ AX; \
	CMPQ AX, CX; \
	JLT  tail; \
out: \
	VMULSD X14, X0, X0; \
	VMULSD X14, X4, X4; \
	VMOVSD (R8), X8; \
	VMOVSD (R9), X9; \
	VANDPD X13, X8, X8; \
	VANDPD X13, X9, X9; \
	VADDSD X8, X0, X0; \
	VADDSD X9, X4, X4; \
	VMOVSD X0, (R8); \
	VMOVSD X4, (R9); \
	ADDQ $8, R8; \
	ADDQ $8, R9; \
	DECQ R10; \
	JNZ  row; \
	VZEROUPPER; \
	RET

// func dotPanel2AVX(a0, a1 *float64, k int, b *float64, taps *int, nb, n, skip int, alpha float64, c0, c1 *float64, first int)
//
// For each of the nb rows B_j of the panel: c0[j] += alpha*dot(a0, B_j)
// and c1[j] += alpha*dot(a1, B_j), where dot is the fixed reduction tree
// of the Go twin: 16 striped partials folded to one scalar, then the k%16
// tail added sequentially. When first is set the products are added to
// +0 instead of C.
TEXT ·dotPanel2AVX(SB), NOSPLIT, $0-96
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ b+24(FP), R11
	MOVQ taps+32(FP), DX
	MOVQ nb+40(FP), R10
	VMOVSD alpha+64(FP), X14
	MOVQ c0+72(FP), R8
	MOVQ c1+80(FP), R9
	MOVQ first+88(FP), R14
	DECQ R14
	VMOVQ R14, X13
	MOVQ CX, R12
	ANDQ $-16, R12
	MOVQ n+48(FP), R14
	MOVQ skip+56(FP), R15
	ADDQ R14, R15
	SHLQ $3, R15
	CMPQ R14, $4
	JEQ  p4row
	CMPQ R14, $8
	JEQ  p8row
	CMPQ R14, CX
	JEQ  p16row
	TESTQ $15, R14
	JZ   p16row

pgrow:
	ROWINIT(n+48(FP), pgfin)

	PCALIGN $32

pgloop:
	GROUP2(0, Y0, Y4)
	JNZ  pg1
	NEXTSEG(skip+56(FP), n+48(FP))

pg1:
	GROUP2(32, Y1, Y5)
	JNZ  pg2
	NEXTSEG(skip+56(FP), n+48(FP))

pg2:
	GROUP2(64, Y2, Y6)
	JNZ  pg3
	NEXTSEG(skip+56(FP), n+48(FP))

pg3:
	GROUP2(96, Y3, Y7)
	JNZ  pgnext
	NEXTSEG(skip+56(FP), n+48(FP))

pgnext:
	ADDQ $16, AX
	CMPQ AX, R12
	JLT  pgloop

pgfin:
	FINISH(skip+56(FP), n+48(FP), pgtail, pgtnext, pgout, pgrow)

p16row:
	ROWINIT(n+48(FP), p16fin)

	PCALIGN $32

p16loop:
	BLOCK2(0(BX), 32(BX), 64(BX), 96(BX))
	ADDQ $128, BX
	SUBQ $16, R13
	JNZ  p16next
	NEXTSEG(skip+56(FP), n+48(FP))

p16next:
	ADDQ $16, AX
	CMPQ AX, R12
	JLT  p16loop

p16fin:
	FINISH(skip+56(FP), n+48(FP), p16tail, p16tnext, p16out, p16row)

// n = 8: a block is two segments, R15 bytes apart.
p8row:
	ROWINIT(n+48(FP), p8fin)

	PCALIGN $32

p8loop:
	BLOCK2((BX), 32(BX), (BX)(R15*1), 32(BX)(R15*1))
	LEAQ (BX)(R15*2), BX
	ADDQ $16, AX
	CMPQ AX, R12
	JLT  p8loop

p8fin:
	FINISH(skip+56(FP), n+48(FP), p8tail, p8tnext, p8out, p8row)

// n = 4: a block is four segments.
p4row:
	ROWINIT(n+48(FP), p4fin)

	PCALIGN $32

p4loop:
	LEAQ (BX)(R15*2), R14
	BLOCK2((BX), (BX)(R15*1), (R14), (R14)(R15*1))
	LEAQ (R14)(R15*2), BX
	ADDQ $16, AX
	CMPQ AX, R12
	JLT  p4loop

p4fin:
	FINISH(skip+56(FP), n+48(FP), p4tail, p4tnext, p4out, p4row)
