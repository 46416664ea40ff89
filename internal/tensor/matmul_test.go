package tensor

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// gemmBlock accumulates a block of C with the row kernels, as Gemm does
// when beta is not 0.
func gemmBlock(transA, transB bool, alpha float64, a, b, c *Tensor, lo, hi, jLo, jHi, k int) {
	gemmPanels(transA, transB, alpha, a, b, c, lo, hi, jLo, jHi, k, false)
}

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
			for _, transA := range []bool{false, true} {
				for _, transB := range []bool{false, true} {
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
}

// TestGemmGridBitwise repeats the serial/parallel contract on shapes whose
// FLOP counts clear the fan-out threshold with room to spare, so that the
// row split, the j-split and a ragged j-split are each exercised through
// the pool whatever the threshold is tuned to.
func TestGemmGridBitwise(t *testing.T) {
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
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
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
}

// TestGemmAccelMatchesGeneric pins the row kernels to the arithmetic they
// replaced: identical bits, not just close values. Over the shapes
// training issues (the 6-to-51-channel convolutions of a quick-scale
// ResNet-18, their 16-to-1024-pixel planes, odd sizes that exercise every
// pair/single and strip/tail path), all four transpose cases and three
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
				for _, transA := range []bool{false, true} {
					for _, transB := range []bool{false, true} {
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
}

// TestRowKernelsMatchTwins runs each accelerated row kernel against its
// Go twin directly, at lengths around every strip and stripe boundary,
// accumulating and (first set) writing over a NaN-poisoned C.
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
				if mode == writeTo {
					base0[0], base1[nj-1] = math.NaN(), math.NaN()
				}
				got0, got1 := append([]float64(nil), base0...), append([]float64(nil), base1...)
				want0, want1 := append([]float64(nil), base0...), append([]float64(nil), base1...)
				axpyRows2(u0, u1, pn, got0, got1, mode)
				axpyRows2Generic(u0, u1, b, nil, ldb, want0, want1, mode)
				got := append([]float64(nil), base0...)
				want := append([]float64(nil), base0...)
				axpyRows1(u0, pn, got, mode)
				axpyRows1Generic(u0, b, nil, ldb, want, mode)
				for j := 0; j < nj; j++ {
					if !sameBits(got0[j], want0[j]) || !sameBits(got1[j], want1[j]) || !sameBits(got[j], want[j]) {
						t.Fatalf("axpyRows kp=%d nj=%d mode=%d differs at column %d", kp, nj, mode, j)
					}
				}
				if mode == foldInto {
					// The fold adds the finished sum: compare with writing
					// it and adding it.
					s0 := make([]float64, nj)
					axpyRows1Generic(u0, b, nil, ldb, s0, writeTo)
					for j := range s0 {
						if !sameBits(got[j], base0[j]+s0[j]) {
							t.Fatalf("foldInto kp=%d nj=%d: column %d is not C + (+0 + Σ)", kp, nj, j)
						}
					}
				}
			}

			// The same sizes as a dot: nj B rows of length kp... and the
			// roles swapped, so both k and the row count cross 16.
			for _, d := range [][2]int{{kp, nj}, {nj, kp}} {
				k, nb := d[0], d[1]
				a0, a1 := Randn(rng, 1, k).Data, Randn(rng, 1, k).Data
				bm := Randn(rng, 1, nb*k).Data
				c := Randn(rng, 1, nb).Data
				for _, first := range []bool{false, true} {
					g0, g1, g := append([]float64(nil), c...), append([]float64(nil), c...), append([]float64(nil), c...)
					dotRows2(a0, a1, bm, -0.5, g0, g1, first)
					dotRows1(a0, bm, -0.5, g, first)
					for j := 0; j < nb; j++ {
						bj := bm[j*k : j*k+k]
						c0 := c[j]
						if first {
							c0 = 0
						}
						w0, w1 := c0+-0.5*refDot(a0, bj), c0+-0.5*refDot(a1, bj)
						if !sameBits(g0[j], w0) || !sameBits(g1[j], w1) || !sameBits(g[j], w0) {
							t.Fatalf("dotRows k=%d nb=%d first=%v differs at row %d", k, nb, first, j)
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
// are not multiples of 4.
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
					got0, got1 := append([]float64(nil), c0...), append([]float64(nil), c1...)
					want0, want1 := append([]float64(nil), c0...), append([]float64(nil), c1...)
					axpyRows2(u0, u1, pn, got0, got1, mode)
					got := append([]float64(nil), c0...)
					axpyRows1(u0, pn, got, mode)
					for r := 0; r < segs; r++ {
						axpyRows2Generic(u0, u1, b[r*ldb:], taps, ldb, want0[r*ldc:r*ldc+n], want1[r*ldc:r*ldc+n], mode)
					}
					for j := range want0 {
						if !sameBits(got0[j], want0[j]) || !sameBits(got1[j], want1[j]) || !sameBits(got[j], want0[j]) {
							t.Fatalf("axpyRows n=%d segs=%d kp=%d mode=%d differs at %d", n, segs, kp, mode, j)
						}
					}
				}

				// The dot: kp B rows of segs·n elements each.
				k := segs * n
				a0, a1 := Randn(rng, 1, k).Data, Randn(rng, 1, k).Data
				c := Randn(rng, 1, kp).Data
				g0, g1, g := append([]float64(nil), c...), append([]float64(nil), c...), append([]float64(nil), c...)
				dotPanel2(a0, a1, pn, g0, g1)
				dotPanel1(a0, pn, g)
				row := make([]float64, k)
				for j := 0; j < kp; j++ {
					for r := 0; r < segs; r++ {
						copy(row[r*n:(r+1)*n], b[taps[j]+r*ldb:])
					}
					w0, w1 := c[j]+refDot(a0, row), c[j]+refDot(a1, row)
					if !sameBits(g0[j], w0) || !sameBits(g1[j], w1) || !sameBits(g[j], w0) {
						t.Fatalf("dotPanel n=%d segs=%d kp=%d differs at row %d", n, segs, kp, j)
					}
				}
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestMatMulEmpty pins the MatMul wrapper on degenerate shapes.
func TestMatMulEmpty(t *testing.T) {
	a := New(0, 4)
	b := New(4, 3)
	c := MatMul(a, b)
	if c.Shape[0] != 0 || c.Shape[1] != 3 || len(c.Data) != 0 {
		t.Fatalf("MatMul empty result shape %v", c.Shape)
	}
}

func TestForEachCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		for _, width := range []int{0, 1, 2, 4, 100} {
			calls := make([]atomic.Int32, n)
			ForEach(n, width, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if got := calls[i].Load(); got != 1 {
					t.Fatalf("n=%d width=%d: index %d called %d times", n, width, i, got)
				}
			}
		}
	}
}
