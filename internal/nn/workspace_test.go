package nn

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/tensor"
)

// stepNet is a small network that touches every layer kind, including the
// ones that accumulate into their result and so depend on Zeros: a
// bias-free depthwise convolution, both pooling backward passes, and a
// pointwise convolution whose backward writes dX without a column buffer.
// c1 and c3 read their unfold in place from padded planes 10 and 6 wide
// (c3's 4-wide output rows go four to a kernel strip); c4 widens its 4×4
// input to a 6×6 output, a stride-1 convolution whose rows are not a
// multiple of 4 wide and so keeps its column block.
func stepNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(
		NewConv2D(rng, "c1", 3, 6, 3, 1, 1, false),
		NewBatchNorm2D("bn1", 6),
		NewReLU(),
		NewDepthwiseConv2D(rng, "dw", 6, 3, 1, 1, false),
		NewReLU6(),
		NewMaxPool2D(2, 2),
		NewConv2D(rng, "c3", 6, 6, 3, 1, 1, false),
		NewConv2D(rng, "c4", 6, 6, 3, 1, 2, false),
		NewConv2D(rng, "pw", 6, 8, 1, 1, 0, true),
		NewAvgPool2D(2, 2),
		NewDropout(rand.New(rand.NewSource(seed+1)), 0.25),
		NewConv2D(rng, "c2", 8, 8, 3, 2, 1, false),
		NewGlobalAvgPool2D(),
		NewFlatten(),
		NewLinear(rng, "fc", 8, 5, true),
	)
}

// TestWorkspaceStepBitIdentity: a model bound to a workspace that is reset
// per step trains to exactly the weights of an unbound twin — on the
// second and later steps every buffer it is handed is dirty slab memory
// (poisoned with NaN here), so any site that relies on a zero fill it did
// not ask for, or reads a tensor past its step, shows up as a different
// bit or a NaN.
func TestWorkspaceStepBitIdentity(t *testing.T) {
	plain, bound := stepNet(5), stepNet(5)
	ws := &tensor.Workspace{}
	SetWorkspace(bound, ws)
	rng := rand.New(rand.NewSource(6))
	optP, optB := NewSGD(0.05, 0.5, 0), NewSGD(0.05, 0.5, 0)
	for s := 0; s < 4; s++ {
		n := 4 - s%2 // the batch size changes between steps, as a last batch does
		x := tensor.Randn(rng, 1, n, 3, 8, 8)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(5)
		}

		ZeroGrads(plain)
		lossP, gradP := CrossEntropy(plain.Forward(x, true), labels)
		plain.Backward(gradP)
		optP.Step(plain.Params())

		ws.Reset()
		poison := ws.Alloc(ws.Cap())
		for i := range poison.Data {
			poison.Data[i] = math.NaN()
		}
		ws.Reset()
		ZeroGrads(bound)
		lossB, gradB := CrossEntropyIn(ws, bound.Forward(x, true), labels)
		bound.Backward(gradB)
		optB.Step(bound.Params())

		if lossP != lossB {
			t.Fatalf("step %d: loss %v with a workspace, %v without", s, lossB, lossP)
		}
		pp, pb := plain.Params(), bound.Params()
		for i := range pp {
			for j, v := range pp[i].Val.Data {
				if w := pb[i].Val.Data[j]; w != v {
					t.Fatalf("step %d: %s[%d] = %v with a workspace, %v without", s, pp[i].Name, j, w, v)
				}
			}
		}
	}
	// Eval mode through the same dirty slab.
	x := tensor.Randn(rng, 1, 3, 3, 8, 8)
	want := plain.Forward(x, false)
	ws.Reset()
	got := bound.Forward(x, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("eval output %d: %v with a workspace, %v without", i, got.Data[i], want.Data[i])
		}
	}
	// Unbinding restores plain allocation: two forwards no longer alias.
	SetWorkspace(bound, nil)
	a, b := bound.Forward(x, false), bound.Forward(x, false)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("unbound forwards share their output buffer")
	}
}

// TestConvPointwiseBitwise pins the pointwise shortcut to the general
// path it replaces: a 1×1/stride-1/unpadded convolution must produce the
// bits that im2col + GEMM + col2im produce — forward output, dX, dW.
func TestConvPointwiseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const n, inC, outC, h, w = 3, 5, 7, 6, 4
	conv := NewConv2D(rng, "pw", inC, outC, 1, 1, 0, false)
	x := tensor.Randn(rng, 1, n, inC, h, w)
	grad := tensor.Randn(rng, 1, n, outC, h, w)
	// Rectified inputs put signed zeros into the products, the one place
	// where "0 + v" and "v" could differ.
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}

	got := conv.Forward(x, true)
	ZeroGrads(conv)
	gotDx := conv.Backward(grad)

	wm := conv.weight.Val.Reshape(outC, inC)
	want := tensor.New(n, outC, h, w)
	wantDx := tensor.New(n, inC, h, w)
	wantDw := tensor.New(outC, inC)
	cols, dcols := tensor.New(inC, h*w), tensor.New(inC, h*w)
	for s := 0; s < n; s++ {
		xs := tensor.FromSlice(x.Data[s*inC*h*w:(s+1)*inC*h*w], inC, h, w)
		tensor.Im2Col(xs, 1, 1, 1, 0, cols)
		tensor.Gemm(false, false, 1, wm, cols, 0, tensor.FromSlice(want.Data[s*outC*h*w:(s+1)*outC*h*w], outC, h*w))
		gs := tensor.FromSlice(grad.Data[s*outC*h*w:(s+1)*outC*h*w], outC, h*w)
		tensor.Gemm(false, true, 1, gs, cols, 1, wantDw)
		tensor.Gemm(true, false, 1, wm, gs, 0, dcols)
		tensor.Col2Im(dcols, inC, h, w, 1, 1, 1, 0, tensor.FromSlice(wantDx.Data[s*inC*h*w:(s+1)*inC*h*w], inC, h, w))
	}
	for name, pair := range map[string][2]*tensor.Tensor{
		"output": {got, want}, "dX": {gotDx, wantDx}, "dW": {conv.weight.Grad, wantDw},
	} {
		for i := range pair[1].Data {
			if math.Float64bits(pair[0].Data[i]) != math.Float64bits(pair[1].Data[i]) {
				t.Fatalf("%s[%d]: pointwise %v, unfolded %v", name, i, pair[0].Data[i], pair[1].Data[i])
			}
		}
	}
}

// TestBackwardAfterEvalPanics: an eval-mode forward keeps nothing for a
// backward pass, and the layers that need something say so instead of
// differentiating a stale batch.
func TestBackwardAfterEvalPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	x := tensor.Randn(rng, 1, 2, 3, 4, 4)
	for name, l := range map[string]Layer{
		"ReLU":        NewReLU(),
		"BatchNorm2D": NewBatchNorm2D("bn", 3),
		"MaxPool2D":   NewMaxPool2D(2, 2),
		"Linear":      NewSequential(NewFlatten(), NewLinear(rng, "fc", 48, 2, false)),
	} {
		l.Forward(x, true) // a train-mode cache the eval forward must drop
		y := l.Forward(x, false)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Backward after an eval forward must panic", name)
				}
			}()
			l.Backward(y)
		}()
	}
}

// TestReLUEvalMatchesTrain: the single-pass rectifier gives the same
// output in both modes, clamp included, and leaves its input alone.
func TestReLUEvalMatchesTrain(t *testing.T) {
	x := tensor.FromSlice([]float64{-1, 0, math.Copysign(0, -1), 0.5, 6, 6.5, math.NaN()}, 7)
	in := x.Clone()
	for _, r := range []*ReLU{NewReLU(), NewReLU6()} {
		want := []float64{0, 0, 0, 0.5, 6, 6.5, 0}
		if r.ClampAt > 0 {
			want[5] = 6
		}
		for _, train := range []bool{true, false} {
			got := r.Forward(x, train)
			for i := range want {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want[i]) {
					t.Fatalf("clamp %v train=%v: out[%d] = %v, want %v", r.ClampAt, train, i, got.Data[i], want[i])
				}
			}
		}
		// Gradient passes where the rectifier was the identity: 0.5, 6,
		// and 6.5 only without the clamp.
		r.Forward(x, true)
		g := r.Backward(tensor.Full(1, 7))
		pass := []float64{0, 0, 0, 1, 1, 1, 0}
		if r.ClampAt > 0 {
			pass[5] = 0
		}
		for i := range pass {
			if g.Data[i] != pass[i] {
				t.Fatalf("clamp %v: grad[%d] = %v, want %v", r.ClampAt, i, g.Data[i], pass[i])
			}
		}
	}
	for i := range in.Data {
		if math.Float64bits(in.Data[i]) != math.Float64bits(x.Data[i]) {
			t.Fatal("ReLU modified its input")
		}
	}
}
