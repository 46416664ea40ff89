package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"adaptivefl/internal/data"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// constantModel always predicts the same class.
type constantModel struct{ class, classes int }

func (c constantModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape[0], c.classes)
	for i := 0; i < x.Shape[0]; i++ {
		out.Set(1, i, c.class)
	}
	return out
}
func (c constantModel) Backward(g *tensor.Tensor) *tensor.Tensor { return g }
func (c constantModel) Params() []*nn.Param                      { return nil }

func testDataset(n, classes int) *data.Dataset {
	d := &data.Dataset{
		X:          tensor.New(n, 1, 2, 2),
		Labels:     make([]int, n),
		NumClasses: classes,
	}
	for i := range d.Labels {
		d.Labels[i] = i % classes
	}
	return d
}

func TestAccuracyConstantPredictor(t *testing.T) {
	ds := testDataset(40, 4)
	acc := Accuracy(constantModel{class: 2, classes: 4}, ds, 7)
	if math.Abs(acc-0.25) > 1e-12 {
		t.Fatalf("accuracy = %v, want 0.25", acc)
	}
}

func TestAccuracyEmptyDataset(t *testing.T) {
	ds := testDataset(0, 3)
	if got := Accuracy(constantModel{0, 3}, ds, 4); got != 0 {
		t.Fatalf("empty accuracy = %v", got)
	}
}

func TestAccuracyBatchBoundaryInvariance(t *testing.T) {
	ds := testDataset(53, 5)
	a := Accuracy(constantModel{1, 5}, ds, 7)
	b := Accuracy(constantModel{1, 5}, ds, 53)
	c := Accuracy(constantModel{1, 5}, ds, 1)
	if a != b || b != c {
		t.Fatalf("batch size changed accuracy: %v %v %v", a, b, c)
	}
}

func TestCurveSeriesAndFinal(t *testing.T) {
	var c Curve
	c.Add(1, map[string]float64{"a": 0.1, "b": 0.5})
	c.Add(2, map[string]float64{"a": 0.2})
	c.Add(3, map[string]float64{"a": 0.3, "b": 0.7})
	rounds, vals := c.Series("a")
	if len(rounds) != 3 || vals[2] != 0.3 {
		t.Fatalf("Series(a) = %v %v", rounds, vals)
	}
	rounds, vals = c.Series("b")
	if len(rounds) != 2 || rounds[1] != 3 {
		t.Fatalf("Series(b) = %v %v", rounds, vals)
	}
	if c.Final("b") != 0.7 || c.Final("a") != 0.3 {
		t.Fatalf("Final wrong: %v %v", c.Final("a"), c.Final("b"))
	}
	if c.Final("missing") != 0 {
		t.Fatal("missing series should be 0")
	}
}

func TestCurveCSV(t *testing.T) {
	var c Curve
	c.Add(1, map[string]float64{"x": 0.5})
	c.Add(2, map[string]float64{"x": 0.75, "y": 0.25})
	csv := c.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "round,x,y" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,0.5000") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], "0.2500") {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestMeanOf(t *testing.T) {
	acc := map[string]float64{"a": 0.2, "b": 0.4}
	if got := MeanOf(acc, "a", "b"); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("MeanOf = %v", got)
	}
	if got := MeanOf(acc, "a", "zzz"); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("MeanOf with missing = %v", got)
	}
	if got := MeanOf(acc, "zzz"); got != 0 {
		t.Fatalf("MeanOf all-missing = %v", got)
	}
}

func TestAccuracyRealModel(t *testing.T) {
	// Accuracy() must agree with nn.Accuracy on a real network.
	rng := rand.New(rand.NewSource(1))
	model := nn.NewSequential(
		nn.NewFlatten(),
		nn.NewLinear(rng, "fc", 4, 3, true),
	)
	ds := &data.Dataset{X: tensor.Randn(rng, 1, 30, 1, 2, 2), Labels: make([]int, 30), NumClasses: 3}
	for i := range ds.Labels {
		ds.Labels[i] = rng.Intn(3)
	}
	batched := Accuracy(model, ds, 7)
	x, labels := ds.Gather(seq(30))
	direct := nn.Accuracy(model.Forward(x, false), labels)
	if math.Abs(batched-direct) > 1e-12 {
		t.Fatalf("batched %v != direct %v", batched, direct)
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestAccuracyLeavesModelUnbound: Accuracy runs the model through a step
// workspace of its own, must compute what an unbound forward computes, and
// must hand the model back unbound — a forward after the call returns
// fresh memory, not a view into a slab Accuracy has recycled.
func TestAccuracyLeavesModelUnbound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	model := nn.NewSequential(
		nn.NewConv2D(rng, "c", 1, 4, 3, 1, 1, true),
		nn.NewBatchNorm2D("bn", 4),
		nn.NewReLU(),
		nn.NewGlobalAvgPool2D(),
		nn.NewFlatten(),
		nn.NewLinear(rng, "fc", 4, 3, true),
	)
	ds := &data.Dataset{X: tensor.Randn(rng, 1, 23, 1, 6, 6), Labels: make([]int, 23), NumClasses: 3}
	for i := range ds.Labels {
		ds.Labels[i] = rng.Intn(3)
	}
	want := nn.Accuracy(model.Forward(ds.X, false), ds.Labels)
	for _, batch := range []int{23, 5} { // one batch; several, the last one short
		if got := Accuracy(model, ds, batch); math.Abs(got-want) > 1e-12 {
			t.Fatalf("batch %d: accuracy %v through the workspace, %v without", batch, got, want)
		}
	}
	a, b := model.Forward(ds.X, false), model.Forward(ds.X, false)
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("the model is still bound to Accuracy's workspace")
	}
}
