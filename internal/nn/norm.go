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
//
// Channels are swept in pairs: the statistics of two channels accumulate
// in one pass, so their add chains overlap, while each channel still sums
// in sample-major order.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64

	gamma, beta             *Param
	runningMean, runningVar *Param
	rect                    rectifier // fused by Rectify; zero when there is none
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

// Rectify fuses r into the layer, which then computes r(γ·x̂+β), and
// returns it. A model calls it wherever a batch norm feeds a rectifier,
// in place of the separate ReLU layer, and gets the same bits without the
// rectifier's two passes: Forward rectifies in its normalise pass, and
// Backward masks the incoming gradient inside the pass that sums Σdy and
// Σdy·x̂, recomputing the pass test from γ·x̂+β — the same two operations
// the forward rectified.
func (b *BatchNorm2D) Rectify(r *ReLU) *BatchNorm2D {
	b.rect = r.rectifier()
	return b
}

// pairs calls f for the channels two at a time; an odd last channel comes
// as its own twin.
func pairs(c int, f func(c0, c1 int)) {
	for ch := 0; ch < c; ch += 2 {
		f(ch, min(ch+1, c-1))
	}
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

	b.xhat, b.invStd = nil, nil
	if train {
		buf := b.kept(len(x.Data) + c)
		b.xhat, b.invStd = buf[:len(x.Data)], buf[len(x.Data):]
		pairs(c, func(c0, c1 int) {
			s0, q0, s1, q1 := sums2(x.Data, n, c*spatial, c0*spatial, c1*spatial, spatial)
			b.normalise(x.Data, out.Data, n, c0, spatial, s0, q0)
			if c1 != c0 {
				b.normalise(x.Data, out.Data, n, c1, spatial, s1, q1)
			}
		})
		return out
	}

	hi := b.rect
	for ch := 0; ch < c; ch++ {
		inv := 1 / math.Sqrt(b.runningVar.Val.Data[ch]+b.Eps)
		mean := b.runningMean.Val.Data[ch]
		g, bt := b.gamma.Val.Data[ch], b.beta.Val.Data[ch]
		for s := 0; s < n; s++ {
			base := (s*c + ch) * spatial
			xs, o := x.Data[base:base+spatial], out.Data[base:base+spatial]
			if hi == 0 {
				for i, v := range xs {
					o[i] = g*(v-mean)*inv + bt
				}
			} else {
				for i, v := range xs {
					o[i] = hi.apply(g*(v-mean)*inv + bt)
				}
			}
		}
	}
	return out
}

// sums2 returns Σv and Σv² over the planes of two channels — the planes
// start at offsets a and b of every sample's block of the given stride —
// each summed in sample-major order, their four add chains overlapped.
func sums2(x []float64, n, stride, a, b, spatial int) (s0, q0, s1, q1 float64) {
	for s := 0; s < n; s++ {
		x0 := x[s*stride+a : s*stride+a+spatial]
		x1 := x[s*stride+b : s*stride+b+spatial]
		x1 = x1[:len(x0)]
		for i, v := range x0 {
			u := x1[i]
			s0 += v
			q0 += v * v
			s1 += u
			q1 += u * u
		}
	}
	return
}

// normalise turns one channel's batch sums into its statistics, writes
// x̂ and the (rectified) output, and moves the running statistics.
func (b *BatchNorm2D) normalise(x, out []float64, n, ch, spatial int, sum, sq float64) {
	m := float64(n * spatial)
	mean := sum / m
	variance := sq/m - mean*mean
	if variance < 0 {
		variance = 0
	}
	inv := 1 / math.Sqrt(variance+b.Eps)
	b.invStd[ch] = inv
	g, bt, hi := b.gamma.Val.Data[ch], b.beta.Val.Data[ch], b.rect
	for s := 0; s < n; s++ {
		base := (s*b.C + ch) * spatial
		xs, xh, o := x[base:base+spatial], b.xhat[base:base+spatial], out[base:base+spatial]
		xh, o = xh[:len(xs)], o[:len(xs)]
		if hi == 0 {
			for i, v := range xs {
				h := (v - mean) * inv
				xh[i] = h
				o[i] = g*h + bt
			}
		} else {
			for i, v := range xs {
				h := (v - mean) * inv
				xh[i] = h
				o[i] = hi.apply(g*h + bt)
			}
		}
	}
	b.runningMean.Val.Data[ch] = (1-b.Momentum)*b.runningMean.Val.Data[ch] + b.Momentum*mean
	b.runningVar.Val.Data[ch] = (1-b.Momentum)*b.runningVar.Val.Data[ch] + b.Momentum*variance
}

// Backward implements the standard batch-norm gradient, through the fused
// rectifier when there is one.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.xhat == nil {
		panic(fmt.Sprintf("nn: batchnorm %s Backward without a train-mode Forward", b.gamma.Name))
	}
	n, c, h, w := grad.Shape[0], grad.Shape[1], grad.Shape[2], grad.Shape[3]
	spatial := h * w
	// The sum pass writes each masked dy into dx, and the closing pass
	// turns it into dX in place.
	dx := b.ws.Alloc(n, c, h, w)
	pairs(c, func(c0, c1 int) {
		d0, e0, d1, e1 := b.gradSums2(grad.Data, dx.Data, n, c0, c1, spatial)
		b.inputGrad(dx.Data, n, c0, spatial, d0, e0)
		if c1 != c0 {
			b.inputGrad(dx.Data, n, c1, spatial, d1, e1)
		}
	})
	return dx
}

// gradSums2 returns Σdy and Σdy·x̂ of two channels, each summed in
// sample-major order, and leaves dy in dx. dy is the incoming gradient,
// zeroed — as +0, like a ReLU layer's Backward — wherever the fused
// rectifier did not pass γ·x̂+β.
func (b *BatchNorm2D) gradSums2(grad, dx []float64, n, c0, c1, spatial int) (d0, e0, d1, e1 float64) {
	g0, bt0 := b.gamma.Val.Data[c0], b.beta.Val.Data[c0]
	g1, bt1 := b.gamma.Val.Data[c1], b.beta.Val.Data[c1]
	hi, keep := b.rect, uint64(0)
	if hi == 0 {
		keep = ^uint64(0)
	}
	for s := 0; s < n; s++ {
		o0, o1 := (s*b.C+c0)*spatial, (s*b.C+c1)*spatial
		gy0, xh0, dy0 := grad[o0:o0+spatial], b.xhat[o0:o0+spatial], dx[o0:o0+spatial]
		gy1, xh1, dy1 := grad[o1:o1+spatial], b.xhat[o1:o1+spatial], dx[o1:o1+spatial]
		xh0, dy0 = xh0[:len(gy0)], dy0[:len(gy0)]
		gy1, xh1, dy1 = gy1[:len(gy0)], xh1[:len(gy0)], dy1[:len(gy0)]
		for i, v := range gy0 {
			x0, x1 := xh0[i], xh1[i]
			v0 := math.Float64frombits(math.Float64bits(v) & (keep | hi.mask(g0*x0+bt0)))
			v1 := math.Float64frombits(math.Float64bits(gy1[i]) & (keep | hi.mask(g1*x1+bt1)))
			dy0[i], dy1[i] = v0, v1
			d0 += v0
			e0 += v0 * x0
			d1 += v1
			e1 += v1 * x1
		}
	}
	return
}

// inputGrad accumulates one channel's γ and β gradients and turns its dy,
// left in dx by gradSums2, into dX.
func (b *BatchNorm2D) inputGrad(dx []float64, n, ch, spatial int, sumDy, sumDyXhat float64) {
	b.beta.Grad.Data[ch] += sumDy
	b.gamma.Grad.Data[ch] += sumDyXhat
	m := float64(n * spatial)
	k1 := b.gamma.Val.Data[ch] * b.invStd[ch] / m
	for s := 0; s < n; s++ {
		base := (s*b.C + ch) * spatial
		d, xh := dx[base:base+spatial], b.xhat[base:base+spatial]
		xh = xh[:len(d)]
		for i, dy := range d {
			d[i] = k1 * (m*dy - sumDy - xh[i]*sumDyXhat)
		}
	}
}

// Params returns gamma, beta and the running-statistic buffers.
func (b *BatchNorm2D) Params() []*Param {
	return []*Param{b.gamma, b.beta, b.runningMean, b.runningVar}
}
