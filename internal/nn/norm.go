package nn

import (
	"fmt"
	"math"

	"adaptivefl/internal/tensor"
)

// BatchNorm2D normalises each channel over (N, H, W) with learnable scale
// and shift. Running statistics are exposed as Buffer params so that FL
// aggregation can average them alongside the weights (width pruning slices
// them like any other channel-indexed tensor).
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64

	gamma, beta             *Param
	runningMean, runningVar *Param
	stepAlloc

	// forward cache, set by train-mode forwards only
	xhat   []float64
	invStd []float64
}

// NewBatchNorm2D builds a batch-norm layer with gamma=1, beta=0.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	b := &BatchNorm2D{C: c, Eps: 1e-5, Momentum: 0.1}
	b.gamma = newParam(name+".gamma", tensor.Full(1, c))
	b.beta = newParam(name+".beta", tensor.New(c))
	b.runningMean = newBuffer(name+".running_mean", tensor.New(c))
	b.runningVar = newBuffer(name+".running_var", tensor.Full(1, c))
	return b
}

// Forward normalises with batch statistics in training mode and running
// statistics in evaluation mode.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != b.C {
		panic(fmt.Sprintf("nn: batchnorm %s expects %d channels, got %d", b.gamma.Name, b.C, c))
	}
	out := b.ws.Alloc(n, c, h, w) // every element is written below
	spatial := h * w
	m := float64(n * spatial)

	b.xhat, b.invStd = nil, nil
	if train {
		buf := b.kept(len(x.Data) + c)
		b.xhat, b.invStd = buf[:len(x.Data)], buf[len(x.Data):]
		for ch := 0; ch < c; ch++ {
			mean, sq := 0.0, 0.0
			for s := 0; s < n; s++ {
				base := (s*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					v := x.Data[base+i]
					mean += v
					sq += v * v
				}
			}
			mean /= m
			variance := sq/m - mean*mean
			if variance < 0 {
				variance = 0
			}
			inv := 1 / math.Sqrt(variance+b.Eps)
			b.invStd[ch] = inv
			g, bt := b.gamma.Val.Data[ch], b.beta.Val.Data[ch]
			for s := 0; s < n; s++ {
				base := (s*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					xh := (x.Data[base+i] - mean) * inv
					b.xhat[base+i] = xh
					out.Data[base+i] = g*xh + bt
				}
			}
			b.runningMean.Val.Data[ch] = (1-b.Momentum)*b.runningMean.Val.Data[ch] + b.Momentum*mean
			b.runningVar.Val.Data[ch] = (1-b.Momentum)*b.runningVar.Val.Data[ch] + b.Momentum*variance
		}
		return out
	}

	for ch := 0; ch < c; ch++ {
		inv := 1 / math.Sqrt(b.runningVar.Val.Data[ch]+b.Eps)
		mean := b.runningMean.Val.Data[ch]
		g, bt := b.gamma.Val.Data[ch], b.beta.Val.Data[ch]
		for s := 0; s < n; s++ {
			base := (s*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				out.Data[base+i] = g*(x.Data[base+i]-mean)*inv + bt
			}
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.xhat == nil {
		panic(fmt.Sprintf("nn: batchnorm %s Backward without a train-mode Forward", b.gamma.Name))
	}
	n, c, h, w := grad.Shape[0], grad.Shape[1], grad.Shape[2], grad.Shape[3]
	spatial := h * w
	m := float64(n * spatial)
	dx := b.ws.Alloc(n, c, h, w)
	for ch := 0; ch < c; ch++ {
		g := b.gamma.Val.Data[ch]
		inv := b.invStd[ch]
		sumDy, sumDyXhat := 0.0, 0.0
		for s := 0; s < n; s++ {
			base := (s*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				dy := grad.Data[base+i]
				sumDy += dy
				sumDyXhat += dy * b.xhat[base+i]
			}
		}
		b.beta.Grad.Data[ch] += sumDy
		b.gamma.Grad.Data[ch] += sumDyXhat
		k1 := g * inv / m
		for s := 0; s < n; s++ {
			base := (s*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				dy := grad.Data[base+i]
				xh := b.xhat[base+i]
				dx.Data[base+i] = k1 * (m*dy - sumDy - xh*sumDyXhat)
			}
		}
	}
	return dx
}

// Params returns gamma, beta and the running-statistic buffers.
func (b *BatchNorm2D) Params() []*Param {
	return []*Param{b.gamma, b.beta, b.runningMean, b.runningVar}
}
