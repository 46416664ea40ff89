package nn

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/tensor"
)

const gradTol = 1e-6

func checkLayer(t *testing.T, name string, layer Layer, x *tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	res := CheckGradients(rng, layer, x)
	if res.MaxInputErr > gradTol {
		t.Errorf("%s: input gradient error %.3g > %g", name, res.MaxInputErr, gradTol)
	}
	if res.MaxParamErr > gradTol {
		t.Errorf("%s: param gradient error %.3g > %g", name, res.MaxParamErr, gradTol)
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []struct {
		name                      string
		inC, outC, k, stride, pad int
		bias                      bool
	}{
		{"3x3-pad1-bias", 3, 4, 3, 1, 1, true},
		{"3x3-stride2", 2, 3, 3, 2, 1, false},
		{"1x1", 4, 2, 1, 1, 0, true},
		{"1x1-nobias", 3, 5, 1, 1, 0, false},
		{"1x1-stride2", 3, 2, 1, 2, 0, false},
		{"5x5-pad2", 2, 2, 5, 1, 2, false},
	} {
		layer := NewConv2D(rng, "c", cfg.inC, cfg.outC, cfg.k, cfg.stride, cfg.pad, cfg.bias)
		x := tensor.Randn(rng, 1, 2, cfg.inC, 6, 6)
		checkLayer(t, "Conv2D/"+cfg.name, layer, x)
	}
}

func TestDepthwiseConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, cfg := range []struct {
		name              string
		c, k, stride, pad int
		bias              bool
	}{
		{"3x3", 3, 3, 1, 1, true},
		{"3x3-stride2", 4, 3, 2, 1, false},
	} {
		layer := NewDepthwiseConv2D(rng, "d", cfg.c, cfg.k, cfg.stride, cfg.pad, cfg.bias)
		x := tensor.Randn(rng, 1, 2, cfg.c, 5, 5)
		checkLayer(t, "Depthwise/"+cfg.name, layer, x)
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layer := NewLinear(rng, "fc", 7, 5, true)
	x := tensor.Randn(rng, 1, 3, 7)
	checkLayer(t, "Linear", layer, x)

	noBias := NewLinear(rng, "fc2", 4, 3, false)
	checkLayer(t, "Linear/nobias", noBias, tensor.Randn(rng, 1, 2, 4))
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	checkLayer(t, "ReLU", NewReLU(), tensor.Randn(rng, 1, 2, 3, 4, 4))
	checkLayer(t, "ReLU6", NewReLU6(), tensor.Randn(rng, 4, 2, 3, 4, 4))
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewBatchNorm2D("bn", 3)
	// Non-trivial gamma/beta so the gradient paths are exercised.
	for i := range layer.gamma.Val.Data {
		layer.gamma.Val.Data[i] = 0.5 + rng.Float64()
		layer.beta.Val.Data[i] = rng.NormFloat64()
	}
	x := tensor.Randn(rng, 1, 4, 3, 3, 3)
	checkLayer(t, "BatchNorm2D", layer, x)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layer := NewBatchNorm2D("bn", 2)
	x := tensor.Randn(rng, 1, 8, 2, 4, 4)
	for i := 0; i < 20; i++ {
		layer.Forward(x, true)
	}
	y := layer.Forward(x, false)
	// After many passes over the same batch the running stats converge to
	// the batch stats, so eval output should be ~N(0,1) per channel.
	mean := y.Sum() / float64(y.Numel())
	if math.Abs(mean) > 0.1 {
		t.Fatalf("eval-mode mean %v, want ~0", mean)
	}
}

func TestPoolingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkLayer(t, "MaxPool2D", NewMaxPool2D(2, 2), tensor.Randn(rng, 1, 2, 3, 6, 6))
	checkLayer(t, "GlobalAvgPool2D", NewGlobalAvgPool2D(), tensor.Randn(rng, 1, 2, 3, 5, 5))
	checkLayer(t, "AvgPool2D", NewAvgPool2D(2, 2), tensor.Randn(rng, 1, 2, 3, 6, 6))
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := NewFlatten()
	x := tensor.Randn(rng, 1, 2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 60 {
		t.Fatalf("Flatten shape = %v", y.Shape)
	}
	g := f.Backward(y)
	if g.Shape[1] != 3 || g.Shape[2] != 4 || g.Shape[3] != 5 {
		t.Fatalf("Flatten backward shape = %v", g.Shape)
	}
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := NewSequential(
		NewConv2D(rng, "c1", 2, 4, 3, 1, 1, false),
		NewBatchNorm2D("bn1", 4),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewLinear(rng, "fc", 4*3*3, 3, true),
	)
	x := tensor.Randn(rng, 1, 2, 2, 6, 6)
	checkLayer(t, "Sequential", seq, x)
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDropout(rng, 0.5)
	x := tensor.Randn(rng, 1, 4, 8)
	y := d.Forward(x, false)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("Dropout must be identity in eval mode")
		}
	}
}

func TestDropoutTrainStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDropout(rng, 0.3)
	x := tensor.Full(1, 1, 10000)
	y := d.Forward(x, true)
	zeros := 0
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		}
	}
	rate := float64(zeros) / float64(y.Numel())
	if math.Abs(rate-0.3) > 0.03 {
		t.Fatalf("drop rate %v, want ~0.3", rate)
	}
	// Expectation preserved by inverted scaling.
	mean := y.Sum() / float64(y.Numel())
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("mean after dropout %v, want ~1", mean)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := tensor.Randn(rng, 3, 5, 7)
	p := Softmax(logits)
	for s := 0; s < 5; s++ {
		sum := 0.0
		for i := 0; i < 7; i++ {
			sum += p.At(s, i)
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", s, sum)
		}
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	logits := tensor.Randn(rng, 1, 4, 6)
	labels := []int{1, 5, 0, 3}
	_, grad := CrossEntropy(logits, labels)
	const eps = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := CrossEntropy(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := CrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-7 {
			t.Fatalf("CE grad mismatch at %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	logits := tensor.FromSlice([]float64{100, 0, 0, 0, 100, 0}, 2, 3)
	loss, _ := CrossEntropy(logits, []int{0, 1})
	if loss > 1e-10 {
		t.Fatalf("loss for perfect predictions = %v", loss)
	}
}

func TestDistillKLZeroWhenEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	logits := tensor.Randn(rng, 1, 3, 5)
	loss, grad := DistillKL(logits, logits.Clone(), 2)
	if loss > 1e-12 {
		t.Fatalf("KL(p‖p) = %v, want 0", loss)
	}
	if grad.MaxAbs() > 1e-12 {
		t.Fatalf("grad at equality should vanish, max %v", grad.MaxAbs())
	}
}

func TestDistillKLGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	student := tensor.Randn(rng, 1, 3, 4)
	teacher := tensor.Randn(rng, 1, 3, 4)
	_, grad := DistillKL(student, teacher, 3)
	const eps = 1e-6
	for i := range student.Data {
		orig := student.Data[i]
		student.Data[i] = orig + eps
		lp, _ := DistillKL(student, teacher, 3)
		student.Data[i] = orig - eps
		lm, _ := DistillKL(student, teacher, 3)
		student.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-7 {
			t.Fatalf("KL grad mismatch at %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		1, 2, 0,
		5, 1, 1,
		0, 0, 9,
	}, 3, 3)
	if got := Accuracy(logits, []int{1, 0, 2}); got != 1 {
		t.Fatalf("Accuracy = %v, want 1", got)
	}
	if got := Accuracy(logits, []int{0, 0, 2}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 2/3", got)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimise f(w) = ||w - target||² via the Param/SGD machinery.
	target := []float64{1, -2, 3}
	p := newParam("w", tensor.New(3))
	opt := NewSGD(0.1, 0.5, 0)
	for i := 0; i < 200; i++ {
		for j := range p.Grad.Data {
			p.Grad.Data[j] = 2 * (p.Val.Data[j] - target[j])
		}
		opt.Step([]*Param{p})
		p.Grad.Zero()
	}
	for j, want := range target {
		if math.Abs(p.Val.Data[j]-want) > 1e-6 {
			t.Fatalf("w[%d] = %v, want %v", j, p.Val.Data[j], want)
		}
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	p := newParam("w", tensor.Full(1, 4))
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}) // grad 0, decay pulls towards 0
	if p.Val.Data[0] >= 1 {
		t.Fatalf("weight decay did not shrink: %v", p.Val.Data[0])
	}
}

func TestSGDSkipsBuffers(t *testing.T) {
	b := newBuffer("buf", tensor.Full(7, 2))
	opt := NewSGD(1, 0, 1)
	opt.Step([]*Param{b})
	if b.Val.Data[0] != 7 {
		t.Fatal("SGD must not update buffers")
	}
}

func TestStateDictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	build := func() *Sequential {
		r := rand.New(rand.NewSource(17))
		return NewSequential(
			NewConv2D(r, "c1", 1, 2, 3, 1, 1, true),
			NewBatchNorm2D("bn", 2),
			NewFlatten(),
			NewLinear(r, "fc", 2*4*4, 3, true),
		)
	}
	a, b := build(), build()
	// Perturb a, snapshot, load into b, compare outputs.
	for _, p := range a.Params() {
		for i := range p.Val.Data {
			p.Val.Data[i] += rng.NormFloat64() * 0.1
		}
	}
	st := StateDict(a)
	if err := LoadState(b, st); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 1, 4, 4)
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	for i := range ya.Data {
		if math.Abs(ya.Data[i]-yb.Data[i]) > 1e-12 {
			t.Fatal("outputs differ after state transfer")
		}
	}
}

func TestLoadStateMissingParam(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	l := NewLinear(rng, "fc", 2, 2, true)
	err := LoadState(l, State{"fc.weight": tensor.New(2, 2)})
	if err == nil {
		t.Fatal("expected error for missing fc.bias")
	}
}

func TestLoadStateShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	l := NewLinear(rng, "fc", 2, 2, false)
	err := LoadState(l, State{"fc.weight": tensor.New(3, 2)})
	if err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestStateNumParamsAndNames(t *testing.T) {
	st := State{"b": tensor.New(2, 2), "a": tensor.New(3)}
	if st.NumParams() != 7 {
		t.Fatalf("NumParams = %d", st.NumParams())
	}
	names := st.Names()
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

// TestTrainingLearnsSeparableData is the end-to-end smoke test: a small
// conv net must fit class-conditional Gaussian blobs far above chance.
func TestTrainingLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const (
		classes = 3
		n       = 90
		dim     = 6
	)
	protos := make([]*tensor.Tensor, classes)
	for c := range protos {
		protos[c] = tensor.Randn(rng, 1, 1, dim, dim)
	}
	x := tensor.New(n, 1, dim, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		for j := 0; j < dim*dim; j++ {
			x.Data[i*dim*dim+j] = protos[c].Data[j] + 0.3*rng.NormFloat64()
		}
	}
	model := NewSequential(
		NewConv2D(rng, "c1", 1, 4, 3, 1, 1, true),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewLinear(rng, "fc", 4*3*3, classes, true),
	)
	opt := NewSGD(0.05, 0.5, 0)
	for epoch := 0; epoch < 30; epoch++ {
		ZeroGrads(model)
		logits := model.Forward(x, true)
		_, grad := CrossEntropy(logits, labels)
		model.Backward(grad)
		opt.Step(model.Params())
	}
	logits := model.Forward(x, false)
	if acc := Accuracy(logits, labels); acc < 0.9 {
		t.Fatalf("training accuracy %v, want >= 0.9", acc)
	}
}

func TestHashStateDetectsSingleBit(t *testing.T) {
	mk := func() State {
		st := State{}
		a := tensor.New(4)
		copy(a.Data, []float64{1, 2, 3, 4})
		st["w"] = a
		return st
	}
	a, b := mk(), mk()
	if HashState(a) != HashState(b) {
		t.Fatal("identical states hash differently")
	}
	b["w"].Data[2] = math.Nextafter(b["w"].Data[2], math.Inf(1)) // one ulp
	if HashState(a) == HashState(b) {
		t.Fatal("single-bit divergence not detected")
	}
}
