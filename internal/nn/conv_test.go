package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"adaptivefl/internal/tensor"
)

// naiveConv2D is the direct 7-loop reference convolution the GEMM paths
// are checked against.
func naiveConv2D(x, weight *tensor.Tensor, bias []float64, stride, pad int) *tensor.Tensor {
	n, inC, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC, k := weight.Shape[0], weight.Shape[2]
	oh := tensor.ConvOutSize(h, k, stride, pad)
	ow := tensor.ConvOutSize(w, k, stride, pad)
	out := tensor.New(n, outC, oh, ow)
	for s := 0; s < n; s++ {
		for o := 0; o < outC; o++ {
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					acc := 0.0
					if bias != nil {
						acc = bias[o]
					}
					for ci := 0; ci < inC; ci++ {
						for ki := 0; ki < k; ki++ {
							ii := oi*stride - pad + ki
							if ii < 0 || ii >= h {
								continue
							}
							for kj := 0; kj < k; kj++ {
								jj := oj*stride - pad + kj
								if jj < 0 || jj >= w {
									continue
								}
								acc += x.At(s, ci, ii, jj) * weight.At(o, ci, ki, kj)
							}
						}
					}
					out.Set(acc, s, o, oi, oj)
				}
			}
		}
	}
	return out
}

// naiveDepthwise is the per-channel direct reference for DepthwiseConv2D.
func naiveDepthwise(x, weight *tensor.Tensor, bias []float64, stride, pad int) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	k := weight.Shape[2]
	oh := tensor.ConvOutSize(h, k, stride, pad)
	ow := tensor.ConvOutSize(w, k, stride, pad)
	out := tensor.New(n, c, oh, ow)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					acc := 0.0
					if bias != nil {
						acc = bias[ch]
					}
					for ki := 0; ki < k; ki++ {
						ii := oi*stride - pad + ki
						if ii < 0 || ii >= h {
							continue
						}
						for kj := 0; kj < k; kj++ {
							jj := oj*stride - pad + kj
							if jj < 0 || jj >= w {
								continue
							}
							acc += x.At(s, ch, ii, jj) * weight.At(ch, 0, ki, kj)
						}
					}
					out.Set(acc, s, ch, oi, oj)
				}
			}
		}
	}
	return out
}

// TestConv2DBatchedMatchesNaive checks the per-sample GEMM forward
// against the direct convolution to 1e-9, in both train and eval mode.
func TestConv2DBatchedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, cfg := range []struct {
		name              string
		n, inC, outC, k   int
		stride, pad, h, w int
		bias              bool
	}{
		{"3x3-pad1-bias", 5, 3, 8, 3, 1, 1, 9, 9, true},
		{"3x3-stride2", 4, 2, 5, 3, 2, 1, 8, 10, false},
		{"1x1", 3, 4, 6, 1, 1, 0, 7, 5, true},
		{"1x1-nobias", 6, 5, 3, 1, 1, 0, 4, 4, false},  // pointwise: no im2col
		{"1x1-stride2", 3, 4, 6, 1, 2, 0, 8, 6, false}, // a 1×1 that still unfolds
		{"5x5-pad2", 2, 2, 3, 5, 1, 2, 6, 6, false},
		{"batch1", 1, 3, 4, 3, 1, 1, 8, 8, true},
	} {
		conv := NewConv2D(rng, "c", cfg.inC, cfg.outC, cfg.k, cfg.stride, cfg.pad, cfg.bias)
		x := tensor.Randn(rng, 1, cfg.n, cfg.inC, cfg.h, cfg.w)
		var bias []float64
		if cfg.bias {
			bias = conv.bias.Val.Data
		}
		want := naiveConv2D(x, conv.weight.Val, bias, cfg.stride, cfg.pad)
		for _, train := range []bool{true, false} {
			got := conv.Forward(x, train)
			if !tensor.SameShape(got, want) {
				t.Fatalf("%s train=%v: shape %v, want %v", cfg.name, train, got.Shape, want.Shape)
			}
			for i := range got.Data {
				if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
					t.Fatalf("%s train=%v: mismatch at %d: %v vs %v",
						cfg.name, train, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestDepthwiseMatchesNaive checks DepthwiseConv2D's forward against the
// direct per-channel reference to 1e-9.
func TestDepthwiseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range []struct {
		name              string
		n, c, k           int
		stride, pad, h, w int
		bias              bool
	}{
		{"3x3-pad1", 4, 3, 3, 1, 1, 7, 9, true},
		{"3x3-stride2", 3, 4, 3, 2, 1, 8, 8, false},
		{"5x5-pad2", 2, 2, 5, 1, 2, 6, 6, true},
	} {
		d := NewDepthwiseConv2D(rng, "d", cfg.c, cfg.k, cfg.stride, cfg.pad, cfg.bias)
		x := tensor.Randn(rng, 1, cfg.n, cfg.c, cfg.h, cfg.w)
		var bias []float64
		if cfg.bias {
			bias = d.bias.Val.Data
		}
		want := naiveDepthwise(x, d.weight.Val, bias, cfg.stride, cfg.pad)
		got := d.Forward(x, true)
		if !tensor.SameShape(got, want) {
			t.Fatalf("%s: shape %v, want %v", cfg.name, got.Shape, want.Shape)
		}
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
				t.Fatalf("%s: mismatch at %d: %v vs %v", cfg.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestConvEvalReleasesCache pins the memory contract: an eval-mode forward
// must not retain the input or the unfold operands (padded planes here),
// and a train-mode forward must (Backward needs them).
func TestConvEvalReleasesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	conv := NewConv2D(rng, "c", 2, 3, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 2, 2, 6, 6)

	conv.Forward(x, true)
	if conv.in == nil || conv.saved == nil {
		t.Fatal("train forward must retain the backward cache")
	}
	conv.Forward(x, false)
	if conv.in != nil || conv.saved != nil {
		t.Fatal("eval forward must release the backward cache")
	}

	dw := NewDepthwiseConv2D(rng, "d", 2, 3, 1, 1, false)
	dw.Forward(x, true)
	if dw.in == nil {
		t.Fatal("train forward must retain the depthwise cache")
	}
	dw.Forward(x, false)
	if dw.in != nil {
		t.Fatal("eval forward must release the depthwise cache")
	}
}

// TestConvEvalScratchReuse: repeated eval-mode forwards of an unbound layer
// must not grow a fresh unfold operand per call — the layer recycles its
// own buffer, so steady-state inference allocates only the output.
func TestConvEvalScratchReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates per-call heap bytes past the threshold")
	}
	rng := rand.New(rand.NewSource(46))
	conv := NewConv2D(rng, "c", 16, 2, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 2, 16, 8, 8)
	want := conv.Forward(x, false)
	// Warm the scratch, then measure steady-state allocated bytes. One
	// worker's padded plane (16 × 10·10 floats ≈ 13 KB) dwarfs the 2 KB
	// output tensor, so reuse shows up as a large drop in bytes per call.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const calls = 50
	for i := 0; i < calls; i++ {
		conv.Forward(x, false)
	}
	runtime.ReadMemStats(&m1)
	perCall := (m1.TotalAlloc - m0.TotalAlloc) / calls
	// The output tensor plus headers and worker bookkeeping is ~3 KB;
	// without the scratch every call adds at least one 13 KB plane.
	if perCall > 8000 {
		t.Fatalf("eval forward allocates %d bytes per call; unfold scratch not engaged", perCall)
	}
	got := conv.Forward(x, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("scratch reuse changed the forward result")
		}
	}
}

// TestConvEvalWorkspaceReuse: bound to a workspace that is reset between
// calls, eval-mode forwards settle into no heap bytes at all for the
// output and the column block alike — both come from the slab — without
// changing the result.
func TestConvEvalWorkspaceReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates per-call heap bytes past the threshold")
	}
	rng := rand.New(rand.NewSource(46))
	conv := NewConv2D(rng, "c", 4, 8, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 2, 4, 8, 8)
	want := conv.Forward(x, false)
	defer tensor.SetParallelism(tensor.SetParallelism(1)) // no goroutines: count the layer's own bytes

	ws := &tensor.Workspace{}
	conv.SetWorkspace(ws)
	conv.Forward(x, false) // warm-up: sizes the slab
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const calls = 50
	for i := 0; i < calls; i++ {
		ws.Reset()
		conv.Forward(x, false)
	}
	runtime.ReadMemStats(&m1)
	// The output alone is 8 KB; what remains is the worker bookkeeping
	// (views, closure, WaitGroup).
	if perCall := (m1.TotalAlloc - m0.TotalAlloc) / calls; perCall > 1024 {
		t.Fatalf("eval forward allocates %d bytes per call with a workspace", perCall)
	}
	ws.Reset()
	got := conv.Forward(x, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("workspace reuse changed the forward result")
		}
	}
}

// TestConvForwardParallelBitwise: the per-sample forward fan-out must be
// bitwise identical to the serial loop, in both train and eval mode —
// each output element is computed by exactly one fixed code path, so the
// worker count may never show up in the numbers.
func TestConvForwardParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	conv := NewConv2D(rng, "c", 3, 5, 3, 1, 1, true)
	x := tensor.Randn(rng, 1, 6, 3, 9, 9)
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	for _, train := range []bool{true, false} {
		tensor.SetParallelism(1)
		want := conv.Forward(x, train)
		tensor.SetParallelism(4)
		got := conv.Forward(x, train)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("train=%v: parallel forward differs at %d", train, i)
			}
		}
	}
}

// TestConvBackwardAfterEvalPanics documents that Backward requires a
// train-mode Forward.
func TestConvBackwardAfterEvalPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	conv := NewConv2D(rng, "c", 1, 2, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 1, 1, 5, 5)
	y := conv.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after eval forward must panic")
		}
	}()
	conv.Backward(y)
}

// TestConv2DBatchMatchesPerSample checks that one batched forward equals
// running the samples through one at a time — the batching must be purely
// an execution-layout change.
func TestConv2DBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	conv := NewConv2D(rng, "c", 3, 4, 3, 1, 1, true)
	const n = 6
	x := tensor.Randn(rng, 1, n, 3, 8, 8)
	batched := conv.Forward(x, true)
	per := len(batched.Data) / n
	single := len(x.Data) / n
	for s := 0; s < n; s++ {
		xs := tensor.FromSlice(x.Data[s*single:(s+1)*single], 1, 3, 8, 8)
		ys := conv.Forward(xs, false)
		for i := range ys.Data {
			if math.Abs(ys.Data[i]-batched.Data[s*per+i]) > 1e-9 {
				t.Fatalf("sample %d diverges from batched forward at %d", s, i)
			}
		}
	}
}
