package nn

import (
	"fmt"
	"math"
	"math/rand"

	"adaptivefl/internal/tensor"
)

// Linear is a fully connected layer: y = x·Wᵀ + b with W of shape
// [Out, In] and batches of shape [N, In].
type Linear struct {
	In, Out int
	UseBias bool

	weight, bias *Param
	stepAlloc
	in *tensor.Tensor // train-mode input, for Backward
}

// NewLinear builds a dense layer with He-initialised weights.
func NewLinear(rng *rand.Rand, name string, in, out int, bias bool) *Linear {
	std := math.Sqrt(2.0 / float64(in))
	l := &Linear{In: in, Out: out, UseBias: bias}
	l.weight = newParam(name+".weight", tensor.Randn(rng, std, out, in))
	if bias {
		l.bias = newParam(name+".bias", tensor.New(out))
	}
	return l
}

// Forward computes y = x·Wᵀ + b.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: linear %s expects %d features, got %d", l.weight.Name, l.In, x.Shape[1]))
	}
	l.in = nil
	if train {
		l.in = x
	}
	n := x.Shape[0]
	y := l.ws.Alloc(n, l.Out)
	tensor.Gemm(false, true, 1, x, l.weight.Val, 0, y)
	if l.UseBias {
		for s := 0; s < n; s++ {
			row := y.Data[s*l.Out : (s+1)*l.Out]
			for j := range row {
				row[j] += l.bias.Val.Data[j]
			}
		}
	}
	return y
}

// Backward accumulates dW = dYᵀ·X, db = Σ dY, and returns dX = dY·W.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.in == nil {
		panic(fmt.Sprintf("nn: linear %s Backward without a train-mode Forward", l.weight.Name))
	}
	n := grad.Shape[0]
	tensor.Gemm(true, false, 1, grad, l.in, 1, l.weight.Grad)
	if l.UseBias {
		for s := 0; s < n; s++ {
			row := grad.Data[s*l.Out : (s+1)*l.Out]
			for j := range row {
				l.bias.Grad.Data[j] += row[j]
			}
		}
	}
	dx := l.ws.Alloc(n, l.In)
	tensor.Gemm(false, false, 1, grad, l.weight.Val, 0, dx)
	return dx
}

// Params returns the weight (and bias) parameters.
func (l *Linear) Params() []*Param {
	if l.UseBias {
		return []*Param{l.weight, l.bias}
	}
	return []*Param{l.weight}
}

// Flatten reshapes [N, C, H, W] batches into [N, C*H*W]. Because tensors
// are row-major NCHW, the flattened features are channel-major, so a
// channel-prefix of the conv output maps to a contiguous feature prefix —
// the property AdaptiveFL's width pruning relies on at the conv→FC seam.
type Flatten struct {
	stepAlloc
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all trailing dimensions.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	features := 1
	for _, d := range x.Shape[1:] {
		features *= d
	}
	return f.ws.View(x.Data, x.Shape[0], features)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return f.ws.View(grad.Data, f.inShape...)
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
