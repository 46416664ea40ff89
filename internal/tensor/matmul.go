package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelism is the number of workers GEMM may fan out to. FL rounds
// train many clients concurrently, so the per-operation parallelism is a
// process-wide knob rather than a per-call argument.
var parallelism int64 = int64(runtime.GOMAXPROCS(0))

// SetParallelism caps the number of workers one operation fans out to: a
// single GEMM call, a convolution's backward kernel call
// (ConvPlaneFilterGrad, ConvPlaneInputGrad), and Conv2D.Forward's sample
// fan-out. n < 1 resets to GOMAXPROCS. It returns
// the previous value.
func SetParallelism(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(atomic.SwapInt64(&parallelism, int64(n)))
}

// Parallelism reports the current worker cap.
func Parallelism() int { return int(atomic.LoadInt64(&parallelism)) }

// ForEach calls fn(i) for every i in [0, n) on up to width goroutines,
// the caller's included, which take indices in order off a shared
// counter; it returns when every call has. A caller whose calls write
// only their own index's results gets the same results at any width.
func ForEach(n, width int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(width, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// fanOut runs body(lo, hi) over [0, n) cut into up to width contiguous
// chunks: the last on the calling goroutine, the others on the GEMM
// worker pool (inline when every worker is busy). It returns when every
// chunk has run.
func fanOut(n, width int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (n + width - 1) / width
	for lo := 0; lo < n; lo += chunk {
		lo, hi := lo, min(lo+chunk, n)
		if hi == n {
			body(lo, hi)
			break
		}
		wg.Add(1)
		task := func() {
			defer wg.Done()
			body(lo, hi)
		}
		if !trySubmit(task) {
			task()
		}
	}
	wg.Wait()
}

// serialThreshold is the FLOP count below which GEMM stays single-threaded:
// handing a chunk to the pool costs a goroutine wake-up, tens of
// microseconds when the other core is idle, and the row kernels get
// through a million FLOPs in about 70 µs — below that the caller waits for
// the wake-up longer than the chunk would have taken it. (The per-sample
// products of a quick-scale convolution, ≤ 0.75 MFLOP, sit under it, in
// the convolution kernels as in Gemm; their parallelism is the sample
// fan-out of Conv2D.Forward.)
const serialThreshold = 1 << 20

// Gemm used to spawn fresh goroutines on every call, which dominated the
// cost of the many small batched GEMMs a training step issues. Work is now
// handed to a persistent pool of GOMAXPROCS workers; submission never
// blocks — if every worker is busy (e.g. nested GEMMs inside concurrently
// training clients) the caller runs the chunk inline, so the pool cannot
// deadlock.
var (
	poolOnce  sync.Once
	poolTasks chan func()
)

func trySubmit(task func()) bool {
	poolOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		poolTasks = make(chan func(), 4*workers)
		for i := 0; i < workers; i++ {
			go func() {
				for f := range poolTasks {
					f()
				}
			}()
		}
	})
	select {
	case poolTasks <- task:
		return true
	default:
		return false
	}
}

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

// MatMul returns C = A·B for A of shape [m,k] and B of shape [k,n].
func MatMul(a, b *Tensor) *Tensor {
	c := New(a.Shape[0], b.Shape[1])
	Gemm(false, false, 1, a, b, 0, c)
	return c
}

// Gemm computes C = alpha*op(A)·op(B) + beta*C where op optionally
// transposes its argument. A, B and C must be rank-2. Shapes after op must
// satisfy op(A):[m,k], op(B):[k,n], C:[m,n].
//
// The work is done by the row kernels of axpy.go, two C rows per call
// (one for the last row of an odd block, in the identical k grouping),
// with large operands tiled into kTile×nTile panels. Rows of C are
// partitioned across the persistent worker pool; each row is owned by
// exactly one worker and accumulated in a fixed order, so results are
// bitwise independent of the parallelism setting. Any future kernel
// variant must preserve the per-element accumulation grouping (2-wise
// over k for NN/TN, the 16-stripe tree for NT) or the serial/parallel/
// AVX paths stop being bitwise identical — see
// TestGemmSerialParallelBitwise and TestGemmAccelMatchesGeneric.
func Gemm(transA, transB bool, alpha float64, a, b *Tensor, beta float64, c *Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(c.Shape) != 2 {
		panic("tensor: Gemm requires rank-2 tensors")
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

	// Partition C into a rows × cols grid of chunks. Row splitting alone
	// starves the pool on skinny-m/huge-n GEMMs (a [8, 72] × [72, 16384]
	// product), so leftover workers split the j dimension too.
	// Every C element's accumulation order over k is fixed by the matrix
	// shapes alone — never by the chunk a worker owns — so the result
	// stays bitwise identical to the serial kernel for any grid.
	rows := workers
	if rows > m {
		rows = m
	}
	cols := 1
	if rows < workers && n >= 2*minJChunk {
		cols = (workers + rows - 1) / rows
		if maxCols := n / minJChunk; cols > maxCols {
			cols = maxCols
		}
	}
	rowChunk := (m + rows - 1) / rows
	// Round the j chunk up to a multiple of 8 (one 64-byte cache line of
	// C) so adjacent workers do not false-share row segments.
	jChunk := (n + cols - 1) / cols
	jChunk = (jChunk + 7) &^ 7

	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += rowChunk {
		hi := lo + rowChunk
		if hi > m {
			hi = m
		}
		for jLo := 0; jLo < n; jLo += jChunk {
			jHi := jLo + jChunk
			if jHi > n {
				jHi = n
			}
			if hi == m && jHi == n {
				// Run the final chunk on the calling goroutine: the caller
				// would otherwise idle in Wait while its work sits queued
				// behind other callers' chunks.
				gemmPanels(transA, transB, alpha, a, b, c, lo, hi, jLo, jHi, k, first)
				break
			}
			wg.Add(1)
			task := func(lo, hi, jLo, jHi int) func() {
				return func() {
					defer wg.Done()
					gemmPanels(transA, transB, alpha, a, b, c, lo, hi, jLo, jHi, k, first)
				}
			}(lo, hi, jLo, jHi)
			if !trySubmit(task) {
				task()
			}
		}
	}
	wg.Wait()
}

// gemmPanels accumulates the C block rows [lo,hi) × columns [jLo,jHi)
// with the row kernels of axpy.go — or, with first set, writes it, each
// element starting from +0. The per-element accumulation order — k taken
// in pairs with a single trailing step for NN and TN, the fixed 16-stripe
// tree for NT — depends only on the matrix shapes, never on the block
// bounds or on which kernel form (pair or single row) processed the
// element, so any grid partition of C reproduces the serial result
// bitwise.
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
		// transposed — which is all that differs between NN and TN.
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
				i := lo
				for ; i+2 <= hi; i += 2 {
					if transA {
						for p := range u0 {
							ap := ad[(p0+p)*m+i:][:2]
							u0[p], u1[p] = alpha*ap[0], alpha*ap[1]
						}
					} else {
						a0, a1 := ad[i*k+p0:][:kp], ad[(i+1)*k+p0:][:kp]
						for p := range u0 {
							u0[p], u1[p] = alpha*a0[p], alpha*a1[p]
						}
					}
					axpyRows2(u0, u1, &pn, cd[i*n+j0:][:nj], cd[(i+1)*n+j0:][:nj], mode)
				}
				if i < hi {
					if transA {
						for p := range u0 {
							u0[p] = alpha * ad[(p0+p)*m+i]
						}
					} else {
						ai := ad[i*k+p0:][:kp]
						for p := range u0 {
							u0[p] = alpha * ai[p]
						}
					}
					axpyRows1(u0, &pn, cd[i*n+j0:][:nj], mode)
				}
			}
		}
	case !transA:
		// C[i,j] += alpha * A[i,p] * B[j,p]: a dot of two rows with the
		// fixed 16-stripe reduction tree (see dot). One kernel call takes
		// every B row of the span against a pair of A rows.
		nj := jHi - jLo
		bs := bd[jLo*k : jHi*k]
		i := lo
		for ; i+2 <= hi; i += 2 {
			dotRows2(ad[i*k:][:k], ad[(i+1)*k:][:k], bs, alpha, cd[i*n+jLo:][:nj], cd[(i+1)*n+jLo:][:nj], first)
		}
		if i < hi {
			dotRows1(ad[i*k:][:k], bs, alpha, cd[i*n+jLo:][:nj], first)
		}
	default: // transA && transB
		for i := lo; i < hi; i++ {
			ci := cd[i*n : i*n+n]
			for j := jLo; j < jHi; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += ad[p*m+i] * bd[j*k+p]
				}
				if first {
					ci[j] = 0
				}
				ci[j] += alpha * s
			}
		}
	}
}
