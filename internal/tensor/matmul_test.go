package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gemmBlock accumulates a block of C with the row kernels, as Gemm does
// when beta is not 0.
func gemmBlock(transA, transB bool, alpha float64, a, b, c *Tensor, lo, hi, jLo, jHi, k int) {
	gemmPanels(transA, transB, alpha, a, b, c, lo, hi, jLo, jHi, k, false)
}

// gemmOps are the products Gemm computes: NN, TN and NT, as
// {transA, transB}.
var gemmOps = [][2]bool{{false, false}, {true, false}, {false, true}}

// gemmOperands builds operands for one (m,k,n, transA, transB) combo.
func gemmOperands(rng *rand.Rand, m, k, n int, transA, transB bool) (a, b *Tensor) {
	if transA {
		a = Randn(rng, 1, k, m)
	} else {
		a = Randn(rng, 1, m, k)
	}
	if transB {
		b = Randn(rng, 1, n, k)
	} else {
		b = Randn(rng, 1, k, n)
	}
	return a, b
}

// TestGemmSerialParallelBitwise is the determinism contract of the tiled
// kernel: for every transpose combination, alpha/beta case, and shape edge
// (m==1, empty dimensions, odd sizes that exercise the pair/tail paths,
// sizes above the fan-out threshold), running with SetParallelism(1) and
// with a worker pool must produce bitwise-identical results.
func TestGemmSerialParallelBitwise(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 7, 5},      // m==1 fast path
		{3, 1, 4},      // k==1: only the scalar k-tail runs
		{0, 3, 2},      // empty m
		{4, 0, 3},      // empty k
		{5, 4, 0},      // empty n
		{17, 31, 29},   // odd everything, below the parallel threshold
		{33, 129, 65},  // odd everything, above the parallel threshold
		{64, 300, 128}, // k spanning multiple panels
		{1, 64, 2048},  // skinny m, huge n: the j-split grid carries all parallelism
		{2, 48, 1100},  // j-split with a ragged final column chunk
		{3, 40, 4099},  // j-split spanning multiple nTile panels, odd n
	}
	cases := []struct{ alpha, beta float64 }{
		{1, 0}, {2, 3}, {0.5, 1}, {0, 2}, {-1.25, -0.5},
	}
	defer SetParallelism(SetParallelism(1))
	for _, sh := range shapes {
		for _, ab := range cases {
			for _, op := range gemmOps {
				transA, transB := op[0], op[1]
				rng := rand.New(rand.NewSource(int64(7*sh.m + 13*sh.k + 29*sh.n)))
				a, b := gemmOperands(rng, sh.m, sh.k, sh.n, transA, transB)
				cInit := Randn(rng, 1, sh.m, sh.n)

				SetParallelism(1)
				serial := cInit.Clone()
				Gemm(transA, transB, ab.alpha, a, b, ab.beta, serial)

				SetParallelism(4)
				par := cInit.Clone()
				Gemm(transA, transB, ab.alpha, a, b, ab.beta, par)

				for i := range serial.Data {
					if serial.Data[i] != par.Data[i] {
						t.Fatalf("m=%d k=%d n=%d transA=%v transB=%v alpha=%v beta=%v: parallel differs at %d: %v vs %v",
							sh.m, sh.k, sh.n, transA, transB, ab.alpha, ab.beta, i, serial.Data[i], par.Data[i])
					}
				}
			}
		}
	}
}

// TestGemmGridBitwise repeats the serial/parallel contract on shapes whose
// FLOP counts clear the fan-out threshold with room to spare, so that the
// row split, the j-split and a ragged j-split are each exercised through
// the pool whatever the threshold is tuned to. The grid hands out whole
// row pairs, so that only the bottom chunk of C ends on a lone row.
func TestGemmGridBitwise(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5, 13, 51, 65} {
		for workers := 2; workers <= 4; workers++ {
			if rowChunk, _ := gemmGrid(m, 4099, workers); rowChunk%2 != 0 {
				t.Fatalf("m=%d workers=%d: row chunks of %d rows", m, workers, rowChunk)
			}
		}
	}
	defer SetParallelism(SetParallelism(1))
	for _, sh := range []struct{ m, k, n int }{
		{65, 300, 129}, // row split, odd everything
		{1, 600, 2048}, // j-split carries all parallelism
		{2, 520, 1100}, // j-split with a ragged final column chunk
		{3, 260, 4099}, // j-split across nTile panels, odd n
	} {
		if 2*sh.m*sh.k*sh.n < 2*serialThreshold {
			t.Fatalf("m=%d k=%d n=%d no longer clears the fan-out threshold", sh.m, sh.k, sh.n)
		}
		for _, op := range gemmOps {
			transA, transB := op[0], op[1]
			rng := rand.New(rand.NewSource(int64(sh.m + sh.k + sh.n)))
			a, b := gemmOperands(rng, sh.m, sh.k, sh.n, transA, transB)
			cInit := Randn(rng, 1, sh.m, sh.n)

			SetParallelism(1)
			serial := cInit.Clone()
			Gemm(transA, transB, -1.25, a, b, 0.5, serial)

			SetParallelism(4)
			par := cInit.Clone()
			Gemm(transA, transB, -1.25, a, b, 0.5, par)

			for i := range serial.Data {
				if serial.Data[i] != par.Data[i] {
					t.Fatalf("m=%d k=%d n=%d transA=%v transB=%v: parallel differs at %d: %v vs %v",
						sh.m, sh.k, sh.n, transA, transB, i, serial.Data[i], par.Data[i])
				}
			}
		}
	}
}

// TestGemmAccelMatchesGeneric pins the row kernels to the arithmetic they
// replaced: identical bits, not just close values. Over the shapes
// training issues (the 6-to-51-channel convolutions of a quick-scale
// ResNet-18, their 16-to-1024-pixel planes, odd sizes that exercise every
// pair/single and strip/tail path), the three products and three
// alpha/beta settings, a block computed by gemmBlock — the AVX kernels
// where the build has them, their Go twins under -tags purego — must
// equal the frozen per-vector loops of matmul_ref_test.go, both for the
// whole matrix and for a span that starts mid-row.
func TestGemmAccelMatchesGeneric(t *testing.T) {
	ms := []int{1, 2, 5, 6, 13, 51}
	ks := []int{1, 4, 15, 16, 27, 54, 459, 1024}
	ns := []int{1, 3, 4, 16, 17, 64, 1024}
	cases := []struct{ alpha, beta float64 }{{1, 0}, {1, 1}, {-0.5, 0.25}}
	for _, m := range ms {
		for _, k := range ks {
			for _, n := range ns {
				if testing.Short() && m*k*n > 1<<20 {
					continue
				}
				for _, op := range gemmOps {
					transA, transB := op[0], op[1]
					rng := rand.New(rand.NewSource(int64(7*m + 13*k + 29*n)))
					a, b := gemmOperands(rng, m, k, n, transA, transB)
					cInit := Randn(rng, 1, m, n)
					for _, ab := range cases {
						// Whole matrix, then the lower rows × columns
						// [jLo,n) with jLo off the strip boundaries.
						for _, span := range [][4]int{{0, m, 0, n}, {m / 2, m, n / 3, n}} {
							lo, hi, jLo, jHi := span[0], span[1], span[2], span[3]
							got, want := cInit.Clone(), cInit.Clone()
							got.Scale(ab.beta)
							want.Scale(ab.beta)
							gemmBlock(transA, transB, ab.alpha, a, b, got, lo, hi, jLo, jHi, k)
							refGemmBlock(transA, transB, ab.alpha, a, b, want, lo, hi, jLo, jHi, k)
							for i := range want.Data {
								if got.Data[i] != want.Data[i] {
									t.Fatalf("m=%d k=%d n=%d transA=%v transB=%v alpha=%v beta=%v span=%v: differs at %d: %v vs %v",
										m, k, n, transA, transB, ab.alpha, ab.beta, span, i, got.Data[i], want.Data[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestRowKernelsMatchTwins runs the accelerated axpy row kernel against
// its Go twin directly, at lengths around every strip boundary, in all
// three modes, over a NaN-poisoned C: for a pair of rows, and for a lone
// row paired with itself in place (c1 = c0, u1 = u0), which must give row
// 0 of the pair. (The dot kernel's cases are in
// TestPanelKernelsMatchTwins.)
func TestRowKernelsMatchTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, kp := range []int{1, 2, 3, 16, 17, 33} {
		for _, nj := range []int{1, 3, 4, 7, 8, 15, 16, 19, 20, 31, 36, 100} {
			ldb := nj + 5
			u0, u1 := Randn(rng, 1, kp).Data, Randn(rng, 1, kp).Data
			b := Randn(rng, 1, kp*ldb).Data
			pn := &panel{b: b, ldb: ldb, segs: 1, n: nj, ldc: nj}
			for _, mode := range []cmode{addTo, writeTo, foldInto} {
				base0, base1 := Randn(rng, 1, nj).Data, Randn(rng, 1, nj).Data
				base0[0], base1[nj-1] = math.NaN(), math.NaN()
				got0, got1 := slices.Clone(base0), slices.Clone(base1)
				want0, want1 := slices.Clone(base0), slices.Clone(base1)
				axpyRows2(u0, u1, pn, got0, got1, mode)
				axpyRows2Generic(u0, u1, b, nil, ldb, want0, want1, mode)
				got, twin := slices.Clone(base0), slices.Clone(base0)
				axpyRows2(u0, u0, pn, got, got, mode)
				axpyRows2Generic(u0, u0, b, nil, ldb, twin, twin, mode)
				for j := 0; j < nj; j++ {
					if !sameBits(got0[j], want0[j]) || !sameBits(got1[j], want1[j]) {
						t.Fatalf("axpyRows2 kp=%d nj=%d mode=%d differs at column %d", kp, nj, mode, j)
					}
					if !sameBits(got[j], want0[j]) || !sameBits(twin[j], want0[j]) {
						t.Fatalf("axpyRows2 in place kp=%d nj=%d mode=%d: column %d is not row 0 of the pair", kp, nj, mode, j)
					}
				}
				if mode == foldInto {
					// The fold adds the finished sum: compare with writing
					// it and adding it.
					s0 := make([]float64, nj)
					axpyRows2Generic(u0, u0, b, nil, ldb, s0, s0, writeTo)
					for j := range s0 {
						if !sameBits(got[j], base0[j]+s0[j]) {
							t.Fatalf("foldInto kp=%d nj=%d: column %d is not C + (+0 + Σ)", kp, nj, j)
						}
					}
				}
			}
		}
	}
}

// TestPanelKernelsMatchTwins runs the segmented forms of the row kernels
// — B rows read in place from a plane through taps, one segment per
// output row — against their Go twins and, for the dot, against the
// frozen dot of a gathered contiguous row, at segment widths that are and
// are not multiples of 4; and the dot over dense one-segment panels, as
// Gemm's NT case hands it B.
func TestPanelKernelsMatchTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 20, 32} {
		for _, segs := range []int{1, 2, 3, 5, 8} {
			for _, kp := range []int{1, 2, 9, 27} {
				ldb := n + 2
				taps := make([]int, kp)
				for p := range taps {
					taps[p] = p*(ldb+1) + p%3
				}
				b := Randn(rng, 1, taps[kp-1]+segs*ldb+n).Data
				// C segments n+1 apart, so the kernels must step over a gap.
				ldc := n + 1
				pn := &panel{b: b, taps: taps, ldb: ldb, segs: segs, n: n, ldc: ldc}
				u0, u1 := Randn(rng, 1, kp).Data, Randn(rng, 1, kp).Data
				for _, mode := range []cmode{addTo, writeTo, foldInto} {
					c0, c1 := Randn(rng, 1, segs*ldc).Data, Randn(rng, 1, segs*ldc).Data
					c0[0], c1[segs*ldc-2] = math.NaN(), math.NaN()
					got0, got1 := slices.Clone(c0), slices.Clone(c1)
					want0, want1 := slices.Clone(c0), slices.Clone(c1)
					axpyRows2(u0, u1, pn, got0, got1, mode)
					// A lone row, paired with itself in place.
					got, twin := slices.Clone(c0), slices.Clone(c0)
					axpyRows2(u0, u0, pn, got, got, mode)
					for r := 0; r < segs; r++ {
						axpyRows2Generic(u0, u1, b[r*ldb:], taps, ldb, want0[r*ldc:r*ldc+n], want1[r*ldc:r*ldc+n], mode)
						tr := twin[r*ldc : r*ldc+n]
						axpyRows2Generic(u0, u0, b[r*ldb:], taps, ldb, tr, tr, mode)
					}
					for j := range want0 {
						if !sameBits(got0[j], want0[j]) || !sameBits(got1[j], want1[j]) {
							t.Fatalf("axpyRows2 n=%d segs=%d kp=%d mode=%d differs at %d", n, segs, kp, mode, j)
						}
						if !sameBits(got[j], want0[j]) || !sameBits(twin[j], want0[j]) {
							t.Fatalf("axpyRows2 in place n=%d segs=%d kp=%d mode=%d: %d is not row 0 of the pair", n, segs, kp, mode, j)
						}
					}
				}

				// The dot: kp B rows of segs·n elements each.
				k := segs * n
				a0, a1 := Randn(rng, 1, k).Data, Randn(rng, 1, k).Data
				rows := make([][]float64, kp)
				for j := range rows {
					rows[j] = make([]float64, k)
					for r := 0; r < segs; r++ {
						copy(rows[j][r*n:(r+1)*n], b[taps[j]+r*ldb:])
					}
				}
				checkDotPanel(t, fmt.Sprintf("dotPanel n=%d segs=%d kp=%d", n, segs, kp), rng, a0, a1, pn, rows)
			}
		}
	}

	// Dense one-segment panels, as Gemm's NT rows: B_j is the k
	// contiguous elements at taps[j] = j·k. Row counts and k cross 4, 8
	// and 16, with tails.
	for _, k := range []int{1, 3, 4, 5, 8, 12, 15, 16, 17, 24, 31, 32, 33, 48, 100} {
		for _, nb := range []int{1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 33} {
			taps := make([]int, nb)
			for j := range taps {
				taps[j] = j * k
			}
			bm := Randn(rng, 1, nb*k).Data
			pn := &panel{b: bm, taps: taps, ldb: k, segs: 1, n: k}
			a0, a1 := Randn(rng, 1, k).Data, Randn(rng, 1, k).Data
			rows := make([][]float64, nb)
			for j := range rows {
				rows[j] = bm[j*k : j*k+k]
			}
			checkDotPanel(t, fmt.Sprintf("dense dotPanel k=%d nb=%d", k, nb), rng, a0, a1, pn, rows)
		}
	}
}

// checkDotPanel runs dotPanel2 over pn, whose B_j gathered into one
// contiguous row is rows[j], against the frozen refDot: for alpha 1 and
// −0.5, accumulating into C and (first set) writing over a NaN-poisoned
// C, for a pair of A rows and for a0 paired with itself in place (c1 =
// c0), which must give row 0 of the pair.
func checkDotPanel(t *testing.T, what string, rng *rand.Rand, a0, a1 []float64, pn *panel, rows [][]float64) {
	t.Helper()
	nb := len(rows)
	for _, alpha := range []float64{1, -0.5} {
		for _, first := range []bool{false, true} {
			c := Randn(rng, 1, nb).Data
			if first {
				c[0], c[nb-1] = math.NaN(), math.NaN()
			}
			g0, g1, g := slices.Clone(c), slices.Clone(c), slices.Clone(c)
			dotPanel2(a0, a1, pn, alpha, g0, g1, first)
			dotPanel2(a0, a0, pn, alpha, g, g, first)
			for j, bj := range rows {
				cj := c[j]
				if first {
					cj = 0
				}
				w0, w1 := cj+alpha*refDot(a0, bj), cj+alpha*refDot(a1, bj)
				if !sameBits(g0[j], w0) || !sameBits(g1[j], w1) || !sameBits(g[j], w0) {
					t.Fatalf("%s alpha=%v first=%v differs at row %d", what, alpha, first, j)
				}
			}
		}
	}
}

// TestNTProductsDoNotAllocate pins the stack tap tables and coefficient
// buffer of the row kernels, and that a lone row pairs with itself in
// place rather than through a spare, at the shapes that end on one: Gemm
// NT at odd m, over two kTile blocks of B rows, Gemm NN and TN at odd m,
// over two kTile panels of k, ConvPlaneFilterGrad and ConvPlane at odd
// outC and ConvPlaneInputGrad at odd c, over two kTile panels of unfold
// rows, allocate nothing.
func TestNTProductsDoNotAllocate(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	rng := rand.New(rand.NewSource(103))
	a, b, c := Randn(rng, 1, 5, 40), Randn(rng, 1, kTile+44, 40), New(5, kTile+44)
	an, at := Randn(rng, 1, 5, kTile+44), Randn(rng, 1, kTile+44, 5)
	bn, cn := Randn(rng, 1, kTile+44, 24), New(5, 24)
	const outC, ch, ph, pw, k = 3, 30, 6, 6, 3
	g := Randn(rng, 1, outC*(ph-k+1)*(pw-k+1)).Data
	plane := Randn(rng, 1, ch*ph*pw).Data
	dw := make([]float64, outC*ch*k*k)
	w := Randn(rng, 1, outC*ch*k*k).Data
	out := make([]float64, outC*(ph-k+1)*(pw-k+1))
	// wt is Wᵀ [c·k·k, outC] for an odd c = 29 input channels.
	const c29 = 29
	wt := Randn(rng, 1, c29*k*k*outC).Data
	scratch, dx := make([]float64, c29*ph*pw), make([]float64, c29*(ph-2)*(pw-2))
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Gemm NT at m=5", func() { Gemm(false, true, 1, a, b, 0, c) }},
		{"Gemm NN at m=5", func() { Gemm(false, false, 1, an, bn, 0, cn) }},
		{"Gemm TN at m=5", func() { Gemm(true, false, 1, at, bn, 0, cn) }},
		{"ConvPlaneFilterGrad at outC=3", func() { ConvPlaneFilterGrad(g, outC, plane, ch, ph, pw, k, dw) }},
		{"ConvPlane at outC=3", func() { ConvPlane(w, outC, plane, ch, ph, pw, k, out) }},
		{"ConvPlaneInputGrad at c=29", func() { ConvPlaneInputGrad(wt, g, outC, c29, ph-2, pw-2, k, 1, scratch, dx) }},
	} {
		if n := testing.AllocsPerRun(20, tc.f); n != 0 {
			t.Fatalf("%s allocates %v times per call", tc.name, n)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestMatMulEmpty pins Gemm on an empty product: m = 0 leaves an empty
// C alone.
func TestMatMulEmpty(t *testing.T) {
	c := New(0, 3)
	Gemm(false, false, 1, New(0, 4), New(4, 3), 0, c)
	if c.Shape[0] != 0 || c.Shape[1] != 3 || len(c.Data) != 0 {
		t.Fatalf("Gemm empty result shape %v", c.Shape)
	}
}

// TestForEachCallsEveryIndexOnce pins ForEach's contract: every index
// is called once, every worker number is below the width, and no two
// calls running at once share a worker number.
func TestForEachCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		for _, width := range []int{0, 1, 2, 4, 100} {
			calls := make([]atomic.Int32, n)
			busy := make([]atomic.Int32, max(width, 1))
			var bad atomic.Int32
			ForEach(n, width, func(w, i int) {
				if w < 0 || w >= len(busy) {
					bad.Store(1)
					return
				}
				if busy[w].Add(1) != 1 {
					bad.Store(1)
				}
				runtime.Gosched()
				busy[w].Add(-1)
				calls[i].Add(1)
			})
			if bad.Load() != 0 {
				t.Fatalf("n=%d width=%d: a worker number out of range or shared by two running calls", n, width)
			}
			for i := range calls {
				if got := calls[i].Load(); got != 1 {
					t.Fatalf("n=%d width=%d: index %d called %d times", n, width, i, got)
				}
			}
		}
	}
}

// TestForEachReturnsWhilePoolBlocked: with every pool worker busy, the
// helpers a ForEach queues cannot start, so the caller must run every
// index itself as worker 0 and return without waiting on them.
func TestForEachReturnsWhilePoolBlocked(t *testing.T) {
	workers := cap(pool) / 4
	release := make(chan struct{})
	var blocked sync.WaitGroup
	blocked.Add(workers)
	blocker := &job{n: workers, fn: func(_, _ int) { blocked.Done(); <-release }}
	for w := 1; w <= workers; w++ {
		pool <- helper{blocker, w}
	}
	blocked.Wait()
	defer close(release)

	const n = 8
	var ws [n]atomic.Int32
	for i := range ws {
		ws[i].Store(-1)
	}
	done := make(chan struct{})
	go func() {
		ForEach(n, 3, func(w, i int) { ws[i].Store(int32(w)) })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ForEach waits on helpers still queued behind a busy pool")
	}
	for i := range ws {
		if w := ws[i].Load(); w != 0 {
			t.Fatalf("index %d ran as worker %d, want 0", i, w)
		}
	}
}
