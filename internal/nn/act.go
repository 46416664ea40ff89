package nn

import (
	"math"
	"math/rand"

	"adaptivefl/internal/tensor"
)

// ReLU is max(0, x). With ClampAt > 0 it becomes the clipped variant
// min(max(0,x), ClampAt) — ReLU6 (ClampAt = 6) is MobileNetV2's activation.
type ReLU struct {
	ClampAt float64 // 0 means no upper clamp

	stepAlloc
	in *tensor.Tensor // train-mode input; Backward reads the pass mask off it
}

// NewReLU returns a standard rectifier.
func NewReLU() *ReLU { return &ReLU{} }

// NewReLU6 returns the MobileNet-style clipped rectifier.
func NewReLU6() *ReLU { return &ReLU{ClampAt: 6} }

// rectifier returns the ReLU as a tensor.Rectifier.
func (r *ReLU) rectifier() tensor.Rectifier { return tensor.NewRectifier(r.ClampAt) }

// Forward applies the rectifier element-wise, in one pass over the input.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := r.ws.Alloc(x.Shape...)
	hi := r.rectifier()
	for i, v := range x.Data {
		out.Data[i] = hi.Apply(v)
	}
	r.in = nil
	if train {
		r.in = x
	}
	return out
}

// Backward zeroes gradient where the forward pass saturated.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.in == nil {
		panic("nn: ReLU Backward without a train-mode Forward")
	}
	out := r.ws.Alloc(grad.Shape...)
	hi := r.rectifier()
	g := grad.Data[:len(r.in.Data)]
	for i, v := range r.in.Data {
		out.Data[i] = math.Float64frombits(math.Float64bits(g[i]) & hi.Mask(v))
	}
	return out
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Dropout zeroes activations with probability P during training and
// rescales survivors by 1/(1-P) (inverted dropout). Evaluation is a no-op.
type Dropout struct {
	P   float64
	rng *rand.Rand

	stepAlloc
	keep []float64 // 1 where the unit survived, 0 where it was dropped; nil after a no-op forward
}

// NewDropout builds a dropout layer with drop probability p.
func NewDropout(rng *rand.Rand, p float64) *Dropout { return &Dropout{P: p, rng: rng} }

// Forward applies dropout in training mode.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		d.keep = nil
		return x
	}
	out := d.ws.Alloc(x.Shape...)
	d.keep = d.kept(len(x.Data))
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			out.Data[i], d.keep[i] = 0, 0
		} else {
			out.Data[i], d.keep[i] = v*scale, 1
		}
	}
	return out
}

// Backward routes gradient only through surviving units.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.keep == nil {
		return grad
	}
	out := d.ws.Alloc(grad.Shape...)
	scale := 1 / (1 - d.P)
	for i, g := range grad.Data {
		if d.keep[i] != 0 {
			out.Data[i] = g * scale
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
