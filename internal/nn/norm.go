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
// A train-mode Forward keeps a reference to its input, as ReLU does, and
// each channel's mean and 1/σ; every pass recomputes x̂ = (x − μ)·inv from
// them with the same two operations, so no x̂ as large as the batch is
// kept. Backward therefore reads the tensor given to the last train-mode
// Forward, which must not change in between. The passes run on
// tensor.BNGroup, four channels at a time, each group's two passes back
// to back so that the second reads what the first left in cache.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64

	gamma, beta             *Param
	runningMean, runningVar *Param
	rect                    tensor.Rectifier // fused by Rectify; zero when there is none
	stepAlloc

	// forward cache, set by train-mode forwards only
	in        *tensor.Tensor
	mean, inv []float64
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
// Backward masks the incoming gradient inside its passes, recomputing the
// pass test from γ·x̂+β — the same operations the forward rectified, on
// the input the last train-mode Forward was given.
func (b *BatchNorm2D) Rectify(r *ReLU) *BatchNorm2D {
	b.rect = r.rectifier()
	return b
}

// group moves g, a group of the layer's channels, to the channels c0 …
// c0+3 (fewer at the end) and their γ and β.
func (b *BatchNorm2D) group(g *tensor.BNGroup, c0 int) {
	g.C0, g.Len = c0, min(4, b.C-c0)
	copy(g.Gamma[:g.Len], b.gamma.Val.Data[c0:])
	copy(g.Beta[:g.Len], b.beta.Val.Data[c0:])
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

	b.in, b.mean, b.inv = nil, nil, nil
	g := tensor.BNGroup{N: n, C: c, Spatial: spatial, Rect: b.rect}
	if !train {
		for c0 := 0; c0 < c; c0 += 4 {
			b.group(&g, c0)
			for k := 0; k < g.Len; k++ {
				g.Mean[k] = b.runningMean.Val.Data[c0+k]
				g.Inv[k] = 1 / math.Sqrt(b.runningVar.Val.Data[c0+k]+b.Eps)
			}
			g.NormaliseEval(out.Data, x.Data)
		}
		return out
	}

	buf := b.kept(2 * c)
	b.in, b.mean, b.inv = x, buf[:c], buf[c:]
	m := float64(n * spatial)
	for c0 := 0; c0 < c; c0 += 4 {
		b.group(&g, c0)
		sum, sq := g.Sums(x.Data)
		for k := 0; k < g.Len; k++ {
			ch := c0 + k
			mean := sum[k] / m
			variance := sq[k]/m - mean*mean
			if variance < 0 {
				variance = 0
			}
			g.Mean[k], g.Inv[k] = mean, 1/math.Sqrt(variance+b.Eps)
			b.mean[ch], b.inv[ch] = g.Mean[k], g.Inv[k]
			b.runningMean.Val.Data[ch] = (1-b.Momentum)*b.runningMean.Val.Data[ch] + b.Momentum*mean
			b.runningVar.Val.Data[ch] = (1-b.Momentum)*b.runningVar.Val.Data[ch] + b.Momentum*variance
		}
		g.Normalise(out.Data, x.Data)
	}
	return out
}

// Backward implements the standard batch-norm gradient, through the fused
// rectifier when there is one, from the input of the last train-mode
// Forward.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.in == nil {
		panic(fmt.Sprintf("nn: batchnorm %s Backward without a train-mode Forward", b.gamma.Name))
	}
	n, c, h, w := grad.Shape[0], grad.Shape[1], grad.Shape[2], grad.Shape[3]
	spatial := h * w
	dx := b.ws.Alloc(n, c, h, w) // every element is written below
	g := tensor.BNGroup{N: n, C: c, Spatial: spatial, Rect: b.rect}
	for c0 := 0; c0 < c; c0 += 4 {
		b.group(&g, c0)
		copy(g.Mean[:g.Len], b.mean[c0:])
		copy(g.Inv[:g.Len], b.inv[c0:])
		dsum, dxsum := g.GradSums(grad.Data, b.in.Data)
		for k := 0; k < g.Len; k++ {
			b.beta.Grad.Data[c0+k] += dsum[k]
			b.gamma.Grad.Data[c0+k] += dxsum[k]
		}
		g.InputGrad(dx.Data, grad.Data, b.in.Data, dsum, dxsum)
	}
	return dx
}

// Params returns gamma, beta and the running-statistic buffers.
func (b *BatchNorm2D) Params() []*Param {
	return []*Param{b.gamma, b.beta, b.runningMean, b.runningVar}
}
