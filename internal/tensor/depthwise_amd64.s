//go:build amd64 && !purego

#include "textflag.h"

// The 3×3 depthwise kernels (padding 1) behind DepthwisePlane. Like the
// row kernels in axpy_amd64.s they use only AVX1, with a separate
// VMULPD and VADDPD per tap, so that each lane does the arithmetic of
// the tap loops in depthwise.go bit for bit. A tap that falls off the
// plane is never added: VBLENDVPD keeps the old sum in every lane of an
// edge vector that the tap misses. The loads of those lanes read the
// neighbouring row, or up to a few elements before or after the plane
// when plain is set: the caller sets it when those stay on the pages of
// the plane's first and last elements. Otherwise the edge vectors load
// through VMASKMOVPD, which reads nothing in a masked lane (but takes a
// slow assist when a masked lane lies on another page).

// MTAP adds one tap to the lanes of the accumulator Y10 that mask
// selects: Y10 += kw·[addr] where mask is set.
#define MTAP(addr, mask, kw) \
	VMASKMOVPD addr, mask, Y11; \
	VMULPD     Y11, kw, Y11; \
	VADDPD     Y11, Y10, Y12; \
	VBLENDVPD  mask, Y12, Y10, Y10

// PMTAP is MTAP with a plain load: the lanes outside mask read memory
// the caller knows to be readable.
#define PMTAP(addr, mask, kw) \
	VMULPD    addr, kw, Y11; \
	VADDPD    Y11, Y10, Y12; \
	VBLENDVPD mask, Y12, Y10, Y10

// PTAP2 adds one tap to two adjacent vectors, Y10 (at m0) and Y13 (at
// m1, 32 bytes on).
#define PTAP2(m0, m1, kw) \
	VMULPD m0, kw, Y11; \
	VMULPD m1, kw, Y12; \
	VADDPD Y11, Y10, Y10; \
	VADDPD Y12, Y13, Y13

// PROW2 and PROW1 add the three taps of one kernel row, read from the
// source row at rp, to two vectors or to one.
#define PROW2(rp, ka, kb, kc) \
	PTAP2(0(rp)(R14*1), 32(rp)(R14*1), ka); \
	PTAP2(0(rp), 32(rp), kb); \
	PTAP2(0(rp)(R9*1), 32(rp)(R9*1), kc)

#define PTAP1(addr, kw) \
	VMULPD addr, kw, Y11; \
	VADDPD Y11, Y10, Y10

#define PROW1(rp, ka, kb, kc) \
	PTAP1((rp)(R14*1), ka); \
	PTAP1((rp), kb); \
	PTAP1((rp)(R9*1), kc)

// func dw3PlaneAVX(y, x, k *float64, init float64, h, w, flip int, masks *[2][3][4]uint64, plain int)
//
// A stride-1 h×w plane: y[r, c] = init + Σ k[ki, kj]·x[r+(ki−1)s, c+(kj−1)s]
// over the taps inside x, in (ki, kj) order, with s = 1 (the forward) or
// s = −1 when flip is set (the input gradient, x then being the output
// gradient). Four adjacent columns share a vector. The first and the last
// vector of a row take their lanes from masks[0] and masks[1] (one mask
// per kernel column; the one of kernel column 1 is also the lanes inside
// the row, which the store is masked to); the vectors between them read
// every tap inside the row (kernel column 1 needs no blend: its lanes
// outside the row are not stored). On the first and the last row the
// kernel row that reads off the plane is skipped.
//
// Registers: Y0–Y8 the taps, Y9 init, Y10 and Y13 accumulators, Y11 and
// Y12 products, Y13–Y15 the masks of an edge vector; DI and SI the row r
// of y and of x, R8 and R9 the row and column step of s in bytes (R14 =
// −R9), R11, R12 and R13 the source rows of kernel rows 0, 1 and 2 at the
// current vector, AX the vector in y, BX the kernel rows live on this row
// (bit 0: row 0, bit 2: row 2), CX the vectors left between the edge
// vectors, DX the rows left, R10 the masks, R15 the edge vector's masks.
TEXT ·dw3PlaneAVX(SB), NOSPLIT, $0-72
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ k+16(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	VBROADCASTSD 64(AX), Y8
	VBROADCASTSD init+24(FP), Y9
	MOVQ h+32(FP), DX
	MOVQ masks+56(FP), R10
	MOVQ w+40(FP), R8
	SHLQ $3, R8
	MOVQ $8, R9
	CMPQ flip+48(FP), $0
	JEQ  psteps
	NEGQ R8
	NEGQ R9

psteps:
	MOVQ R9, R14
	NEGQ R14

prow:
	// The first row has no source row r−1: kernel row 0 forward, 2 when
	// flipped. The last row has no row r+1: kernel row 2, or 0.
	MOVQ $5, BX
	CMPQ DX, h+32(FP)
	JNE  pfirstdone
	TESTQ R9, R9
	JS   pfirstflip
	ANDQ $4, BX
	JMP  pfirstdone

pfirstflip:
	ANDQ $1, BX

pfirstdone:
	CMPQ DX, $1
	JNE  prowptrs
	TESTQ R9, R9
	JS   plastflip
	ANDQ $1, BX
	JMP  prowptrs

plastflip:
	ANDQ $4, BX

prowptrs:
	MOVQ DI, AX
	MOVQ SI, R12
	MOVQ SI, R11
	SUBQ R8, R11
	LEAQ (SI)(R8*1), R13
	MOVQ w+40(FP), CX
	ADDQ $3, CX
	SHRQ $2, CX
	SUBQ $2, CX
	MOVQ R10, R15

pedge:
	VMOVUPD 0(R15), Y13
	VMOVUPD 32(R15), Y14
	VMOVUPD 64(R15), Y15
	VMOVUPD Y9, Y10
	CMPQ plain+64(FP), $0
	JNE  pplain
	TESTQ $1, BX
	JZ   pedge1
	MTAP((R11)(R14*1), Y13, Y0)
	MTAP((R11), Y14, Y1)
	MTAP((R11)(R9*1), Y15, Y2)

pedge1:
	MTAP((R12)(R14*1), Y13, Y3)
	MTAP((R12), Y14, Y4)
	MTAP((R12)(R9*1), Y15, Y5)
	TESTQ $4, BX
	JZ   pedgestore
	MTAP((R13)(R14*1), Y13, Y6)
	MTAP((R13), Y14, Y7)
	MTAP((R13)(R9*1), Y15, Y8)
	JMP  pedgestore

pplain:
	TESTQ $1, BX
	JZ   pplain1
	PMTAP((R11)(R14*1), Y13, Y0)
	PTAP1((R11), Y1)
	PMTAP((R11)(R9*1), Y15, Y2)

pplain1:
	PMTAP((R12)(R14*1), Y13, Y3)
	PTAP1((R12), Y4)
	PMTAP((R12)(R9*1), Y15, Y5)
	TESTQ $4, BX
	JZ   pedgestore
	PMTAP((R13)(R14*1), Y13, Y6)
	PTAP1((R13), Y7)
	PMTAP((R13)(R9*1), Y15, Y8)

pedgestore:
	VMASKMOVPD Y10, Y14, (AX)
	ADDQ $32, AX
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	CMPQ R15, R10
	JNE  pnext
	TESTQ CX, CX
	JL   pnext

pinner2:
	CMPQ CX, $2
	JLT  pinner1
	VMOVUPD Y9, Y10
	VMOVUPD Y9, Y13
	TESTQ $1, BX
	JZ   pinner2b
	PROW2(R11, Y0, Y1, Y2)

pinner2b:
	PROW2(R12, Y3, Y4, Y5)
	TESTQ $4, BX
	JZ   pinner2store
	PROW2(R13, Y6, Y7, Y8)

pinner2store:
	VMOVUPD Y10, 0(AX)
	VMOVUPD Y13, 32(AX)
	ADDQ $64, AX
	ADDQ $64, R11
	ADDQ $64, R12
	ADDQ $64, R13
	SUBQ $2, CX
	JMP  pinner2

pinner1:
	TESTQ CX, CX
	JZ   plastedge
	VMOVUPD Y9, Y10
	TESTQ $1, BX
	JZ   pinner1b
	PROW1(R11, Y0, Y1, Y2)

pinner1b:
	PROW1(R12, Y3, Y4, Y5)
	TESTQ $4, BX
	JZ   pinner1store
	PROW1(R13, Y6, Y7, Y8)

pinner1store:
	VMOVUPD Y10, 0(AX)
	ADDQ $32, AX
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13

plastedge:
	LEAQ 96(R10), R15
	JMP  pedge

pnext:
	MOVQ w+40(FP), CX
	LEAQ (DI)(CX*8), DI
	LEAQ (SI)(CX*8), SI
	DECQ DX
	JNZ  prow
	VZEROUPPER
	RET

// FTAP adds gradient Y3 times the four input columns at addr to the
// accumulator acc of one kernel row, in every lane.
#define FTAP(addr, acc) \
	VMULPD addr, Y3, Y4; \
	VADDPD Y4, acc, acc

// FMTAP is FTAP in the lanes of the mask Y6 only, reading nothing in
// the others; FPMTAP reads them with a plain load.
#define FMTAP(addr, acc) \
	VMASKMOVPD addr, Y6, Y4; \
	VMULPD     Y4, Y3, Y4; \
	VADDPD     Y4, acc, Y5; \
	VBLENDVPD  Y6, Y5, acc, acc

#define FPMTAP(addr, acc) \
	VMULPD    addr, Y3, Y4; \
	VADDPD    Y4, acc, Y5; \
	VBLENDVPD Y6, Y5, acc, acc

// func dw3FilterAVX(acc *[12]float64, gr, x *float64, h, w, oh, ow, stride, colHi int, masks *[3][4]uint64, plain int)
//
// The filter gradient of one plane: kernel row ki's accumulator holds
// taps (ki, 0), (ki, 1) and (ki, 2) in lanes 0–2, and each lane sums
// g[oi, oj]·x[oi·stride−1+ki, oj·stride−1+kj] from +0 over the outputs
// in (oi, oj) order whose tap lands inside x. Output column 0 and the
// columns from colHi on take their lanes from masks[0], masks[1] and
// masks[2] in turn; the columns between read four input columns inside
// the row (lane 3 is never used). A kernel row off the plane is skipped.
// plain is dw3PlaneAVX's.
//
// Registers: Y0–Y2 the accumulators of kernel rows 0–2, Y3 the gradient,
// Y4 and Y5 products and sums, Y6 an edge column's mask; SI the gradient,
// DI the input row of kernel row 1, R11–R13 the input rows of kernel rows
// 0–2, CX the first input column in bytes, AX the output column, BX the
// kernel rows live (bit 0: row 0, bit 2: row 2), DX the rows left, R8
// the input row in bytes, R9 the stride in bytes, R10 the masks, R14
// colHi, R15 the next edge column's mask.
TEXT ·dw3FilterAVX(SB), NOSPLIT, $0-88
	MOVQ gr+8(FP), SI
	MOVQ oh+40(FP), DX
	MOVQ w+32(FP), R8
	SHLQ $3, R8
	MOVQ stride+56(FP), R9
	SHLQ $3, R9
	MOVQ colHi+64(FP), R14
	MOVQ masks+72(FP), R10
	XORQ DI, DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2

frow:
	MOVQ x+16(FP), R12
	MOVQ DI, AX
	IMULQ R8, AX
	ADDQ AX, R12
	MOVQ R12, R11
	SUBQ R8, R11
	LEAQ (R12)(R8*1), R13
	MOVQ $5, BX
	TESTQ DI, DI
	JNZ  frowbot
	ANDQ $4, BX

frowbot:
	LEAQ 1(DI), AX
	CMPQ AX, h+24(FP)
	JLT  frowcols
	ANDQ $1, BX

frowcols:
	MOVQ $-8, CX
	XORQ AX, AX
	MOVQ R10, R15

fedge:
	VMOVUPD (R15), Y6
	VBROADCASTSD (SI), Y3
	CMPQ plain+80(FP), $0
	JNE  fplain
	TESTQ $1, BX
	JZ   fedge1
	FMTAP((R11)(CX*1), Y0)

fedge1:
	FMTAP((R12)(CX*1), Y1)
	TESTQ $4, BX
	JZ   fedgenext
	FMTAP((R13)(CX*1), Y2)
	JMP  fedgenext

fplain:
	TESTQ $1, BX
	JZ   fplain1
	FPMTAP((R11)(CX*1), Y0)

fplain1:
	FPMTAP((R12)(CX*1), Y1)
	TESTQ $4, BX
	JZ   fedgenext
	FPMTAP((R13)(CX*1), Y2)

fedgenext:
	ADDQ $32, R15
	ADDQ $8, SI
	ADDQ R9, CX
	INCQ AX
	CMPQ AX, ow+48(FP)
	JGE  frowend
	CMPQ AX, R14
	JGE  fedge

finner:
	VBROADCASTSD (SI), Y3
	TESTQ $1, BX
	JZ   finner1
	FTAP((R11)(CX*1), Y0)

finner1:
	FTAP((R12)(CX*1), Y1)
	TESTQ $4, BX
	JZ   finnernext
	FTAP((R13)(CX*1), Y2)

finnernext:
	ADDQ $8, SI
	ADDQ R9, CX
	INCQ AX
	CMPQ AX, R14
	JLT  finner
	CMPQ AX, ow+48(FP)
	JLT  fedge

frowend:
	ADDQ stride+56(FP), DI
	DECQ DX
	JNZ  frow
	MOVQ acc+0(FP), AX
	VMOVUPD Y0, 0(AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VZEROUPPER
	RET

// S2ROW adds the three taps of one kernel row at stride 2 to Y10: input
// columns 2l−1, 2l and 2l+1 (l = 0…3) from rp, which points at column −1
// of the group's first output. P = (rp[0], rp[1], rp[4], rp[5]), Q =
// (rp[2], rp[3], rp[6], rp[7]) and P' = (rp[4], rp[5], rp[8], rp[9])
// unpack to the columns of kernel column 0 (P, Q low), 1 (P, Q high) and
// 2 (Q, P' low).
#define S2ROW(rp, ka, kb, kc) \
	VMOVUPD     0(rp), X11; \
	VINSERTF128 $1, 32(rp), Y11, Y11; \
	VMOVUPD     16(rp), X12; \
	VINSERTF128 $1, 48(rp), Y12, Y12; \
	VMOVUPD     32(rp), X13; \
	VINSERTF128 $1, 64(rp), Y13, Y13; \
	VUNPCKLPD   Y12, Y11, Y14; \
	VMULPD      Y14, ka, Y14; \
	VADDPD      Y14, Y10, Y10; \
	VUNPCKHPD   Y12, Y11, Y14; \
	VMULPD      Y14, kb, Y14; \
	VADDPD      Y14, Y10, Y10; \
	VUNPCKLPD   Y13, Y12, Y14; \
	VMULPD      Y14, kc, Y14; \
	VADDPD      Y14, Y10, Y10

// func dw3ForwardS2AVX(y, x, k *float64, init float64, w, ow, rows, groups int)
//
// The stride-2 forward on a block of output rows whose outputs take all
// nine taps: for each of rows output rows (ow apart in y, two input rows
// of w apart in x) and groups groups of four adjacent outputs, y[l] =
// init + Σ k[ki, kj]·x[ki·w + 2l − 1 + kj] in (ki, kj) order, with y at
// the row's first output and x at the input column 2·0 − 1 of kernel row
// 0. Each group reads ten input columns from that one.
TEXT ·dw3ForwardS2AVX(SB), NOSPLIT, $0-64
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ k+16(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	VBROADCASTSD 64(AX), Y8
	VBROADCASTSD init+24(FP), Y9
	MOVQ w+32(FP), R8
	SHLQ $3, R8
	MOVQ ow+40(FP), R9
	SHLQ $3, R9
	MOVQ rows+48(FP), DX

s2row:
	MOVQ DI, AX
	MOVQ SI, R11
	LEAQ (SI)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	MOVQ groups+56(FP), CX

s2group:
	VMOVUPD Y9, Y10
	S2ROW(R11, Y0, Y1, Y2)
	S2ROW(R12, Y3, Y4, Y5)
	S2ROW(R13, Y6, Y7, Y8)
	VMOVUPD Y10, (AX)
	ADDQ $32, AX
	ADDQ $64, R11
	ADDQ $64, R12
	ADDQ $64, R13
	DECQ CX
	JNZ  s2group
	ADDQ R9, DI
	LEAQ (SI)(R8*2), SI
	DECQ DX
	JNZ  s2row
	VZEROUPPER
	RET

// S2STORE interleaves the even-column sums Y10 and the odd-column sums
// Y11 of four column pairs and stores the eight columns at dst.
#define S2STORE(dst) \
	VUNPCKLPD  Y11, Y10, Y13; \
	VUNPCKHPD  Y11, Y10, Y14; \
	VPERM2F128 $0x20, Y14, Y13, Y10; \
	VPERM2F128 $0x31, Y14, Y13, Y11; \
	VMOVUPD    Y10, 0(dst); \
	VMOVUPD    Y11, 32(dst)

// func dw3InputS2AVX(dx, gr, k *float64, w, ow, pairs, groups int)
//
// The stride-2 input gradient on pairs of input rows 2a and 2a+1 whose
// output rows a and a+1 both exist, and groups groups of eight columns,
// 2b and 2b+1 for four adjacent b, whose kernel column 0 taps all land
// inside the output row. From +0 and in (ki, kj) order, with G = g[a] and
// H = g[a+1]:
//   dx[2a, 2b]     = G[b]·k4
//   dx[2a, 2b+1]   = G[b+1]·k3 + G[b]·k5
//   dx[2a+1, 2b]   = H[b]·k1 + G[b]·k7
//   dx[2a+1, 2b+1] = H[b+1]·k0 + H[b]·k2 + G[b+1]·k6 + G[b]·k8
// dx and gr point at the first pair's row 2a and row a.
TEXT ·dw3InputS2AVX(SB), NOSPLIT, $0-56
	MOVQ dx+0(FP), DI
	MOVQ gr+8(FP), SI
	MOVQ k+16(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7
	VBROADCASTSD 64(AX), Y8
	VXORPD Y9, Y9, Y9
	MOVQ w+24(FP), R8
	SHLQ $3, R8
	MOVQ ow+32(FP), R9
	SHLQ $3, R9
	MOVQ pairs+40(FP), DX

di2pair:
	MOVQ DI, R10
	LEAQ (DI)(R8*1), R12
	MOVQ SI, R13
	LEAQ (SI)(R9*1), R11
	MOVQ groups+48(FP), CX

di2group:
	VMULPD (R13), Y4, Y12
	VADDPD Y12, Y9, Y10
	VMULPD 8(R13), Y3, Y12
	VADDPD Y12, Y9, Y11
	VMULPD (R13), Y5, Y12
	VADDPD Y12, Y11, Y11
	S2STORE(R10)
	VMULPD (R11), Y1, Y12
	VADDPD Y12, Y9, Y10
	VMULPD (R13), Y7, Y12
	VADDPD Y12, Y10, Y10
	VMULPD 8(R11), Y0, Y12
	VADDPD Y12, Y9, Y11
	VMULPD (R11), Y2, Y12
	VADDPD Y12, Y11, Y11
	VMULPD 8(R13), Y6, Y12
	VADDPD Y12, Y11, Y11
	VMULPD (R13), Y8, Y12
	VADDPD Y12, Y11, Y11
	S2STORE(R12)
	ADDQ $64, R10
	ADDQ $64, R12
	ADDQ $32, R13
	ADDQ $32, R11
	DECQ CX
	JNZ  di2group
	LEAQ (DI)(R8*2), DI
	ADDQ R9, SI
	DECQ DX
	JNZ  di2pair
	VZEROUPPER
	RET
