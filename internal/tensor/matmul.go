package tensor

// serialThreshold is the FLOP count below which GEMM and the convolution
// backward kernels stay on the calling goroutine: waking a pool helper
// costs tens of microseconds when the other core is idle, and the row
// kernels get through a million FLOPs in about 70 µs, so below it the
// caller would wait for the helper longer than the work would have taken
// it. (The per-sample products of a quick-scale convolution, ≤ 0.75
// MFLOP, sit under it; their parallelism is Conv2D.Forward's ForEach over
// samples.)
const serialThreshold = 1 << 20

// Tiling parameters for the blocked kernel (NN and TN). One row-kernel
// call covers a kTile×nTile panel of B for a pair of C rows: the k-panel
// bounds the slab of B streamed per row pair (and the coefficient buffer
// gemmPanels keeps on its stack), the j-panel how much of B must stay cache
// resident while the row pairs take their turns over it. kTile is even,
// so k is grouped into the same pairs whatever the panel; panel boundaries
// are fixed by matrix shape alone, so the floating-point accumulation
// order — and therefore the bitwise result — is identical whether the row
// chunks run serially or on the pool.
const (
	kTile = 256
	nTile = 1024
)

// minJChunk is the narrowest j-span worth handing to a worker when the
// grid splits columns: wide enough to amortise task dispatch and keep
// the row kernels on long contiguous runs.
const minJChunk = 256

// Gemm computes C = alpha*op(A)·op(B) + beta*C where op optionally
// transposes one of its arguments: the layers run A·B (NN), Aᵀ·B (TN)
// and A·Bᵀ (NT), and Gemm panics on both transposed. A, B and C must be
// rank-2. Shapes after op must satisfy op(A):[m,k], op(B):[k,n], C:[m,n].
//
// The work is done by the row kernels of axpy.go, two C rows per call,
// the last row of an odd block paired with itself in place. NN and TN go
// through axpyRows2, with large operands tiled into kTile×nTile panels.
// NT goes through dotPanel2, the one dot kernel, up to kTile B rows per
// call as a dense one-segment panel. Above serialThreshold, C is cut
// into a grid of row × column chunks that ForEach hands to up to
// Parallelism workers, whole row pairs to a chunk; each element is owned
// by exactly one chunk and accumulated in a fixed order, so results are
// bitwise independent of the parallelism setting. Any future kernel
// variant must preserve the per-element accumulation grouping (2-wise
// over k for NN/TN, the 16-stripe tree for NT) or the serial/parallel/AVX
// paths stop being bitwise identical — see TestGemmSerialParallelBitwise
// and TestGemmAccelMatchesGeneric.
func Gemm(transA, transB bool, alpha float64, a, b *Tensor, beta float64, c *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(c.Shape) != 2 {
		panic("tensor: Gemm requires rank-2 tensors")
	}
	if transA && transB {
		panic("tensor: Gemm does not compute Aᵀ·Bᵀ (transA and transB both set)")
	}
	am, ak := a.Shape[0], a.Shape[1]
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.Shape[0], b.Shape[1]
	if transB {
		bk, bn = bn, bk
	}
	if ak != bk || c.Shape[0] != am || c.Shape[1] != bn {
		panic("tensor: Gemm shape mismatch")
	}
	m, k, n := am, ak, bn

	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		// Nothing to add: C is only scaled, and beta 0 leaves +0 in every
		// element, whatever it held.
		if beta == 0 {
			c.Zero()
		} else if beta != 1 {
			c.Scale(beta)
		}
		return
	}
	// With beta 0 the row kernels write C on the first k-panel, each
	// element starting from +0, so C needs no pass that clears it first.
	first := beta == 0
	if !first && beta != 1 {
		c.Scale(beta)
	}

	workers := Parallelism()
	if 2*m*n*k < serialThreshold || workers <= 1 {
		gemmPanels(transA, transB, alpha, a, b, c, 0, m, 0, n, k, first)
		return
	}

	rowChunk, jChunk := gemmGrid(m, n, workers)
	rowChunks := (m + rowChunk - 1) / rowChunk
	colChunks := (n + jChunk - 1) / jChunk
	ForEach(rowChunks*colChunks, workers, func(_, chunk int) {
		lo, jLo := chunk/colChunks*rowChunk, chunk%colChunks*jChunk
		gemmPanels(transA, transB, alpha, a, b, c, lo, min(lo+rowChunk, m), jLo, min(jLo+jChunk, n), k, first)
	})
}

// gemmGrid partitions C [m, n] into a grid of chunks, rowChunk rows by
// jChunk columns, for up to workers workers. Row splitting alone starves
// the pool on skinny-m/huge-n GEMMs (a [8, 72] × [72, 16384] product), so
// leftover workers split the j dimension too. Every C element's
// accumulation order over k is fixed by the matrix shapes alone — never
// by the chunk a worker owns — so the result stays bitwise identical to
// the serial kernel for any grid. Rows are handed out in pairs, so that a
// chunk ends on a lone row only at the bottom of C.
func gemmGrid(m, n, workers int) (rowChunk, jChunk int) {
	rows := min(workers, (m+1)/2)
	cols := 1
	if rows < workers && n >= 2*minJChunk {
		cols = min((workers+rows-1)/rows, n/minJChunk)
	}
	// Round the j chunk up to a multiple of 8 (one 64-byte cache line of
	// C) so adjacent workers do not false-share row segments.
	return ((m+rows-1)/rows + 1) &^ 1, ((n+cols-1)/cols + 7) &^ 7
}

// gemmPanels accumulates the C block rows [lo,hi) × columns [jLo,jHi)
// with the row kernels of axpy.go — or, with first set, writes it, each
// element starting from +0. The per-element accumulation order — k taken
// in pairs with a single trailing step for NN and TN, the fixed 16-stripe
// tree for NT — depends only on the matrix shapes, never on the block
// bounds or on whether an element's row went through a kernel with
// another row or paired with itself, so any grid partition of C
// reproduces the serial result bitwise.
func gemmPanels(transA, transB bool, alpha float64, a, b, c *Tensor, lo, hi, jLo, jHi, k int, first bool) {
	m, n := c.Shape[0], c.Shape[1]
	ad, bd, cd := a.Data, b.Data, c.Data
	switch {
	case !transB:
		// C[i,j] += alpha * op(A)[i,p] * B[p,j], tiled j-then-k. A kernel
		// call takes one kTile panel of a C row pair, k in pairs; kTile is
		// even, so the pairs are the same (0,1),(2,3),… whatever the
		// panel. The panel's scaled A coefficients are gathered first —
		// along a row of A, or down two adjacent columns when A is
		// transposed — which is all that differs between NN and TN. The
		// last row of an odd block goes as a pair with itself, in place.
		var ubuf [2 * kTile]float64
		for j0 := jLo; j0 < jHi; j0 += nTile {
			nj := min(nTile, jHi-j0)
			for p0 := 0; p0 < k; p0 += kTile {
				kp := min(kTile, k-p0)
				u0, u1 := ubuf[:kp], ubuf[kTile:kTile+kp]
				pn := panel{b: bd[p0*n+j0:], ldb: n, segs: 1, n: nj, ldc: nj}
				mode := addTo
				if first && p0 == 0 {
					mode = writeTo
				}
				for i := lo; i < hi; i += 2 {
					i1 := min(i+1, hi-1)
					if transA {
						for p := range u0 {
							ap := ad[(p0+p)*m:]
							u0[p], u1[p] = alpha*ap[i], alpha*ap[i1]
						}
					} else {
						a0, a1 := ad[i*k+p0:][:kp], ad[i1*k+p0:][:kp]
						for p := range u0 {
							u0[p], u1[p] = alpha*a0[p], alpha*a1[p]
						}
					}
					axpyRows2(u0, u1, &pn, cd[i*n+j0:][:nj], cd[i1*n+j0:][:nj], mode)
				}
			}
		}
	default: // !transA, transB
		// C[i,j] += alpha * A[i,p] * B[j,p]: a dot of two rows with the
		// fixed 16-stripe reduction tree (see dot). The span's B rows go
		// to dotPanel2 kTile at a time, a one-segment panel with row j at
		// taps[j] = j·k, against each pair of A rows; the last row of an
		// odd block goes as a pair with itself, in place.
		var taps [kTile]int
		for j := range taps[:min(kTile, jHi-jLo)] {
			taps[j] = j * k
		}
		for j0 := jLo; j0 < jHi; j0 += kTile {
			nb := min(kTile, jHi-j0)
			pn := panel{b: bd[j0*k : (j0+nb)*k], taps: taps[:nb], ldb: k, segs: 1, n: k}
			for i := lo; i < hi; i += 2 {
				i1 := min(i+1, hi-1)
				dotPanel2(ad[i*k:][:k], ad[i1*k:][:k], &pn, alpha, cd[i*n+j0:][:nb], cd[i1*n+j0:][:nb], first)
			}
		}
	}
}
