package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapesAndNumel(t *testing.T) {
	cases := []struct {
		shape []int
		want  int
	}{
		{[]int{}, 1},
		{[]int{0}, 0},
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4, 5}, 120},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Numel() != c.want {
			t.Errorf("New(%v).Numel() = %d, want %d", c.shape, tt.Numel(), c.want)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At(1,2,3) = %v, want 7.5", got)
	}
	if got := x.Data[1*12+2*4+3]; got != 7.5 {
		t.Fatalf("row-major offset wrong: %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must share underlying data")
	}
	z := x.Reshape(-1, 2)
	if z.Shape[0] != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Shape[0])
	}
}

func TestReshapeBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on incompatible reshape")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] != 1 {
		t.Fatal("Clone must not share data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	a.AddInPlace(b)
	want := []float64{5, 7, 9}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("AddInPlace: got %v", a.Data)
		}
	}
	a.Scale(0.5)
	if a.Data[0] != 2.5 {
		t.Fatalf("Scale: got %v", a.Data)
	}
	a.AddScaled(2, b)
	if a.Data[0] != 10.5 {
		t.Fatalf("AddScaled: got %v", a.Data)
	}
}

func TestSumArgMaxMaxAbs(t *testing.T) {
	x := FromSlice([]float64{-5, 2, 3}, 3)
	if x.Sum() != 0 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.ArgMax() != 2 {
		t.Fatalf("ArgMax = %d", x.ArgMax())
	}
	if x.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
}

// naiveMatMul is the O(mnk) reference used to validate GEMM.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {33, 17, 29}} {
		a := Randn(rng, 1, dims[0], dims[1])
		b := Randn(rng, 1, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-10) {
				t.Fatalf("MatMul %v mismatch at %d: %v vs %v", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestGemmTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, k, n := 6, 5, 7
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	want := naiveMatMul(a, b)

	// Build transposed copies.
	at := New(k, m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			at.Set(a.At(i, p), p, i)
		}
	}
	bt := New(n, k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt.Set(b.At(p, j), j, p)
		}
	}
	check := func(name string, transA, transB bool, aa, bb *Tensor) {
		t.Helper()
		c := New(m, n)
		Gemm(transA, transB, 1, aa, bb, 0, c)
		for i := range c.Data {
			if !almostEq(c.Data[i], want.Data[i], 1e-10) {
				t.Fatalf("%s mismatch at %d", name, i)
			}
		}
	}
	check("NN", false, false, a, b)
	check("TN", true, false, at, b)
	check("NT", false, true, a, bt)
	check("TT", true, true, at, bt)
}

func TestGemmAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 3, 4)
	b := Randn(rng, 1, 4, 2)
	c := Full(1, 3, 2)
	Gemm(false, false, 2, a, b, 3, c)
	want := naiveMatMul(a, b)
	for i := range c.Data {
		if !almostEq(c.Data[i], 2*want.Data[i]+3, 1e-10) {
			t.Fatalf("alpha/beta mismatch at %d", i)
		}
	}
}

func TestGemmParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Randn(rng, 1, 64, 48)
	b := Randn(rng, 1, 48, 40)
	prev := SetParallelism(1)
	serial := MatMul(a, b)
	SetParallelism(8)
	par := MatMul(a, b)
	SetParallelism(prev)
	for i := range serial.Data {
		if !almostEq(serial.Data[i], par.Data[i], 1e-12) {
			t.Fatalf("parallel GEMM differs at %d", i)
		}
	}
}

// naiveConv computes a direct convolution for validating im2col+GEMM.
func naiveConv(x, w *Tensor, stride, pad int) *Tensor {
	c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2]
	oc, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(wd, kw, stride, pad)
	y := New(oc, oh, ow)
	for o := 0; o < oc; o++ {
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				s := 0.0
				for ci := 0; ci < c; ci++ {
					for ki := 0; ki < kh; ki++ {
						for kj := 0; kj < kw; kj++ {
							ii, jj := oi*stride-pad+ki, oj*stride-pad+kj
							if ii >= 0 && ii < h && jj >= 0 && jj < wd {
								s += x.At(ci, ii, jj) * w.At(o, ci, ki, kj)
							}
						}
					}
				}
				y.Set(s, o, oi, oj)
			}
		}
	}
	return y
}

func TestIm2ColConvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range []struct{ c, h, w, oc, k, stride, pad int }{
		{1, 5, 5, 2, 3, 1, 1},
		{3, 8, 8, 4, 3, 1, 1},
		{2, 7, 7, 3, 3, 2, 1},
		{4, 6, 6, 2, 1, 1, 0},
		{2, 9, 9, 5, 5, 2, 2},
	} {
		x := Randn(rng, 1, cfg.c, cfg.h, cfg.w)
		w := Randn(rng, 1, cfg.oc, cfg.c, cfg.k, cfg.k)
		oh := ConvOutSize(cfg.h, cfg.k, cfg.stride, cfg.pad)
		ow := ConvOutSize(cfg.w, cfg.k, cfg.stride, cfg.pad)
		cols := New(cfg.c*cfg.k*cfg.k, oh*ow)
		Im2Col(x, cfg.k, cfg.k, cfg.stride, cfg.pad, cols)
		wm := w.Reshape(cfg.oc, cfg.c*cfg.k*cfg.k)
		y := MatMul(wm, cols).Reshape(cfg.oc, oh, ow)
		want := naiveConv(x, w, cfg.stride, cfg.pad)
		for i := range y.Data {
			if !almostEq(y.Data[i], want.Data[i], 1e-9) {
				t.Fatalf("conv cfg %+v mismatch at %d: %v vs %v", cfg, i, y.Data[i], want.Data[i])
			}
		}
	}
}

func TestCol2ImIsIm2ColAdjoint(t *testing.T) {
	// <Im2Col(x), g> must equal <x, Col2Im(g)> — the defining property of
	// an adjoint pair, which is exactly what backprop relies on.
	rng := rand.New(rand.NewSource(6))
	c, h, w, k, stride, pad := 3, 7, 6, 3, 2, 1
	oh := ConvOutSize(h, k, stride, pad)
	ow := ConvOutSize(w, k, stride, pad)
	x := Randn(rng, 1, c, h, w)
	g := Randn(rng, 1, c*k*k, oh*ow)

	cols := New(c*k*k, oh*ow)
	Im2Col(x, k, k, stride, pad, cols)
	lhs := 0.0
	for i := range cols.Data {
		lhs += cols.Data[i] * g.Data[i]
	}
	back := New(c, h, w)
	Col2Im(g, c, h, w, k, k, stride, pad, back)
	rhs := 0.0
	for i := range back.Data {
		rhs += back.Data[i] * x.Data[i]
	}
	if !almostEq(lhs, rhs, 1e-9) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestExtractPrefix(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
	}, 2, 3)
	p := ExtractPrefix(x, []int{2, 2})
	want := []float64{1, 2, 4, 5}
	for i := range want {
		if p.Data[i] != want[i] {
			t.Fatalf("ExtractPrefix = %v, want %v", p.Data, want)
		}
	}
}

func TestCopyPrefixInto(t *testing.T) {
	dst := Full(9, 2, 3)
	src := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	CopyPrefixInto(dst, src)
	want := []float64{1, 2, 9, 3, 4, 9}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("CopyPrefixInto = %v, want %v", dst.Data, want)
		}
	}
}

func TestAccumulatePrefix(t *testing.T) {
	dst := New(2, 2)
	cnt := New(2, 2)
	src := FromSlice([]float64{1, 2}, 1, 2)
	AccumulatePrefix(dst, cnt, src, 3)
	AccumulatePrefix(dst, cnt, src, 1)
	if dst.At(0, 0) != 4 || dst.At(0, 1) != 8 || dst.At(1, 0) != 0 {
		t.Fatalf("dst = %v", dst.Data)
	}
	if cnt.At(0, 0) != 4 || cnt.At(1, 1) != 0 {
		t.Fatalf("cnt = %v", cnt.Data)
	}
}

func TestPrefixRoundTripProperty(t *testing.T) {
	// Property: extracting a prefix and copying it back into a zero tensor
	// then re-extracting yields the same block.
	rng := rand.New(rand.NewSource(7))
	f := func(a, b, c uint8) bool {
		d0, d1, d2 := int(a%4)+1, int(b%4)+1, int(c%4)+1
		full := Randn(rng, 1, d0+2, d1+1, d2+3)
		block := ExtractPrefix(full, []int{d0, d1, d2})
		host := New(full.Shape...)
		CopyPrefixInto(host, block)
		again := ExtractPrefix(host, []int{d0, d1, d2})
		for i := range block.Data {
			if block.Data[i] != again.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatePrefixEqualsWeightedMeanProperty(t *testing.T) {
	// Property: accumulating k copies of the same tensor with arbitrary
	// positive weights and dividing by counts recovers the tensor.
	rng := rand.New(rand.NewSource(8))
	f := func(wa, wb uint8) bool {
		w1, w2 := float64(wa%10)+1, float64(wb%10)+1
		src := Randn(rng, 1, 3, 2)
		dst, cnt := New(3, 2), New(3, 2)
		AccumulatePrefix(dst, cnt, src, w1)
		AccumulatePrefix(dst, cnt, src, w2)
		for i := range dst.Data {
			if !almostEq(dst.Data[i]/cnt.Data[i], src.Data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixFits(t *testing.T) {
	a, b := New(2, 3), New(2, 4)
	if !PrefixFits(a, b) {
		t.Fatal("2x3 should fit in 2x4")
	}
	if PrefixFits(b, a) {
		t.Fatal("2x4 should not fit in 2x3")
	}
	if PrefixFits(New(2), New(2, 2)) {
		t.Fatal("rank mismatch should not fit")
	}
}

func TestConvOutSize(t *testing.T) {
	if ConvOutSize(32, 3, 1, 1) != 32 {
		t.Fatal("same-pad 3x3 should preserve size")
	}
	if ConvOutSize(32, 2, 2, 0) != 16 {
		t.Fatal("2x2/2 pooling should halve")
	}
	if ConvOutSize(7, 3, 2, 1) != 4 {
		t.Fatal("ConvOutSize(7,3,2,1) should be 4")
	}
}
