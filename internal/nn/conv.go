package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"adaptivefl/internal/tensor"
)

// Conv2D is a 2-D convolution with square kernels, implemented as
// im2col + GEMM over per-sample column blocks: each sample's [InC*K*K,
// OH*OW] block feeds one GEMM whose destination is a view straight into
// the [N, OutC, OH, OW] output, so no scatter copy reorders the result
// (and backward's gradient gather disappears symmetrically — the grad's
// per-sample [OutC, OH*OW] blocks are already GEMM-shaped). A pointwise
// convolution (1×1, stride 1, no padding) skips the unfolding altogether:
// a sample's [InC, H*W] plane already is its column block, and backward
// writes the column gradient straight into dX. Weight layout is [OutC,
// InC, K, K]; input batches are [N, InC, H, W].
type Conv2D struct {
	InC, OutC, K, Stride, Pad int
	UseBias                   bool

	weight, bias *Param
	stepAlloc

	// forward cache, set by train-mode forwards only: an eval-mode
	// forward clears it, so inference pins neither the input nor the
	// column blocks and a Backward after it fails loudly.
	in     *tensor.Tensor
	cols   []float64 // N column blocks of InC*K*K × OH*OW; in.Data when pointwise
	oh, ow int
}

// NewConv2D builds a convolution layer with He-initialised weights. The
// name prefixes the layer's parameter names ("<name>.weight").
func NewConv2D(rng *rand.Rand, name string, inC, outC, k, stride, pad int, bias bool) *Conv2D {
	fanIn := inC * k * k
	std := math.Sqrt(2.0 / float64(fanIn))
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, UseBias: bias}
	c.weight = newParam(name+".weight", tensor.Randn(rng, std, outC, inC, k, k))
	if bias {
		c.bias = newParam(name+".bias", tensor.New(outC))
	}
	return c
}

func (c *Conv2D) pointwise() bool { return c.K == 1 && c.Stride == 1 && c.Pad == 0 }

// Forward computes the convolution over a batch.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ci, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ci != c.InC {
		panic(fmt.Sprintf("nn: conv %s expects %d input channels, got %d", c.weight.Name, c.InC, ci))
	}
	c.oh = tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	c.ow = tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
	spatial, rows := c.oh*c.ow, c.InC*c.K*c.K
	inSz, colSz, outSz := ci*h*w, rows*spatial, c.OutC*spatial
	pointwise := c.pointwise()

	// Samples touch disjoint column and output blocks, so up to Parallelism
	// workers take them one at a time off a shared counter (each element
	// is still computed by exactly one fixed code path, so results stay
	// bitwise independent of who computed it). Everything the workers
	// need is taken from the workspace here, before they start: it serves
	// one goroutine at a time.
	par := max(1, min(tensor.Parallelism(), n))
	out := c.ws.Alloc(n, c.OutC, c.oh, c.ow)
	var cols []float64
	switch {
	case pointwise:
		cols = x.Data
	case train:
		cols = c.kept(n * colSz) // for Backward
	default:
		cols = c.kept(par * colSz) // one block per worker
	}
	c.in, c.cols = nil, nil
	if train {
		c.in, c.cols = x, cols
	}
	if n > 0 {
		// One GEMM per sample, written straight into the sample's [OutC,
		// spatial] block of the output — the GEMM destination IS the
		// final layout. A worker re-points its three views per sample.
		wm := c.ws.View(c.weight.Val.Data, c.OutC, rows)
		type views struct{ x, cols, out *tensor.Tensor }
		workers := make([]views, par)
		for i := range workers {
			workers[i] = views{
				cols: c.ws.View(cols[:colSz], rows, spatial),
				out:  c.ws.View(out.Data[:outSz], c.OutC, spatial),
			}
			if !pointwise {
				workers[i].x = c.ws.View(x.Data[:inSz], ci, h, w)
			}
		}
		var next atomic.Int64
		run := func(wk int) {
			v := workers[wk]
			for s := int(next.Add(1)) - 1; s < n; s = int(next.Add(1)) - 1 {
				block := s
				if !train && !pointwise {
					block = wk
				}
				v.cols.Data = cols[block*colSz : (block+1)*colSz]
				if !pointwise {
					v.x.Data = x.Data[s*inSz : (s+1)*inSz]
					tensor.Im2Col(v.x, c.K, c.K, c.Stride, c.Pad, v.cols)
				}
				v.out.Data = out.Data[s*outSz : (s+1)*outSz]
				tensor.Gemm(false, false, 1, wm, v.cols, 0, v.out)
			}
		}
		var wg sync.WaitGroup
		for wk := 1; wk < par; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				run(wk)
			}(wk)
		}
		run(0)
		wg.Wait()
	}
	if c.UseBias {
		for s := 0; s < n; s++ {
			for o := 0; o < c.OutC; o++ {
				b := c.bias.Val.Data[o]
				dst := out.Data[(s*c.OutC+o)*spatial : (s*c.OutC+o+1)*spatial]
				for i := range dst {
					dst[i] += b
				}
			}
		}
	}
	return out
}

// Backward accumulates dW (and db) and returns dX. The grad's per-sample
// [OutC, spatial] blocks are used as GEMM operands in place — the layout
// Forward writes is exactly the layout backward needs.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.in == nil {
		panic(fmt.Sprintf("nn: conv %s Backward without a train-mode Forward", c.weight.Name))
	}
	n := grad.Shape[0]
	spatial, rows := c.oh*c.ow, c.InC*c.K*c.K
	h, w := c.in.Shape[2], c.in.Shape[3]
	inSz, colSz, outSz := c.InC*h*w, rows*spatial, c.OutC*spatial
	pointwise := c.pointwise()

	// dX needs no zero fill: Col2Im clears each sample's plane before it
	// folds into it, and the pointwise GEMM (beta 0) overwrites it.
	dx := c.ws.Alloc(n, c.InC, h, w)
	if n == 0 {
		return dx
	}
	dwm := c.ws.View(c.weight.Grad.Data, c.OutC, rows)
	wm := c.ws.View(c.weight.Val.Data, c.OutC, rows)
	gS := c.ws.View(grad.Data[:outSz], c.OutC, spatial)
	colsS := c.ws.View(c.cols[:colSz], rows, spatial)
	var dcols, dxS *tensor.Tensor
	if pointwise {
		dcols = c.ws.View(dx.Data[:inSz], rows, spatial)
	} else {
		dcols = c.ws.Alloc(rows, spatial)
		dxS = c.ws.View(dx.Data[:inSz], c.InC, h, w)
	}
	for s := 0; s < n; s++ {
		gS.Data = grad.Data[s*outSz : (s+1)*outSz]
		colsS.Data = c.cols[s*colSz : (s+1)*colSz]
		// dW += g_s · cols_sᵀ
		tensor.Gemm(false, true, 1, gS, colsS, 1, dwm)
		// dcols_s = Wᵀ · g_s: the sample's dX plane itself when pointwise,
		// folded back into it otherwise.
		if pointwise {
			dcols.Data = dx.Data[s*inSz : (s+1)*inSz]
		}
		tensor.Gemm(true, false, 1, wm, gS, 0, dcols)
		if !pointwise {
			dxS.Data = dx.Data[s*inSz : (s+1)*inSz]
			tensor.Col2Im(dcols, c.InC, h, w, c.K, c.K, c.Stride, c.Pad, dxS)
		}
		if c.UseBias {
			for o := 0; o < c.OutC; o++ {
				row := gS.Data[o*spatial : (o+1)*spatial]
				acc := 0.0
				for _, v := range row {
					acc += v
				}
				c.bias.Grad.Data[o] += acc
			}
		}
	}
	return dx
}

// Params returns the weight (and bias) parameters.
func (c *Conv2D) Params() []*Param {
	if c.UseBias {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}

// DepthwiseConv2D applies one K×K filter per channel (groups == channels),
// the building block of MobileNetV2. Weight layout is [C, 1, K, K].
// Each (sample, channel) plane is convolved tap-by-tap over row-contiguous
// slices: the kernel taps form the outer loops and the inner loop runs
// along output rows with the bounds hoisted, instead of a 6-deep scalar
// loop with per-element padding branches.
type DepthwiseConv2D struct {
	C, K, Stride, Pad int
	UseBias           bool

	weight, bias *Param
	stepAlloc
	in     *tensor.Tensor
	oh, ow int
}

// NewDepthwiseConv2D builds a depthwise convolution layer.
func NewDepthwiseConv2D(rng *rand.Rand, name string, c, k, stride, pad int, bias bool) *DepthwiseConv2D {
	std := math.Sqrt(2.0 / float64(k*k))
	d := &DepthwiseConv2D{C: c, K: k, Stride: stride, Pad: pad, UseBias: bias}
	d.weight = newParam(name+".weight", tensor.Randn(rng, std, c, 1, k, k))
	if bias {
		d.bias = newParam(name+".bias", tensor.New(c))
	}
	return d
}

// tapRange returns the output index range [lo,hi) along one axis for which
// the input index oi*stride - pad + k stays inside [0, in).
func tapRange(k, stride, pad, in, out int) (lo, hi int) {
	lo = 0
	if pad > k {
		lo = (pad - k + stride - 1) / stride
	}
	hi = out
	if m := (in - 1 + pad - k) / stride; m+1 < hi {
		hi = m + 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Forward computes the per-channel convolution.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if c != d.C {
		panic(fmt.Sprintf("nn: depthwise %s expects %d channels, got %d", d.weight.Name, d.C, c))
	}
	if train {
		d.in = x
	} else {
		d.in = nil
	}
	d.oh = tensor.ConvOutSize(h, d.K, d.Stride, d.Pad)
	d.ow = tensor.ConvOutSize(w, d.K, d.Stride, d.Pad)
	// The taps accumulate into the output: it starts from the bias where
	// there is one, from zero otherwise.
	var out *tensor.Tensor
	if d.UseBias {
		out = d.ws.Alloc(n, c, d.oh, d.ow)
	} else {
		out = d.ws.Zeros(n, c, d.oh, d.ow)
	}
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			xIn := x.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			ker := d.weight.Val.Data[ch*d.K*d.K : (ch+1)*d.K*d.K]
			yOut := out.Data[(s*c+ch)*d.oh*d.ow : (s*c+ch+1)*d.oh*d.ow]
			if d.UseBias {
				b := d.bias.Val.Data[ch]
				for i := range yOut {
					yOut[i] = b
				}
			}
			for ki := 0; ki < d.K; ki++ {
				oiLo, oiHi := tapRange(ki, d.Stride, d.Pad, h, d.oh)
				for kj := 0; kj < d.K; kj++ {
					kv := ker[ki*d.K+kj]
					ojLo, ojHi := tapRange(kj, d.Stride, d.Pad, w, d.ow)
					if ojHi <= ojLo {
						continue
					}
					for oi := oiLo; oi < oiHi; oi++ {
						ii := oi*d.Stride - d.Pad + ki
						yRow := yOut[oi*d.ow : (oi+1)*d.ow]
						if d.Stride == 1 {
							xSeg := xIn[ii*w+ojLo+kj-d.Pad : ii*w+ojHi+kj-d.Pad]
							ySeg := yRow[ojLo:ojHi]
							for j, v := range xSeg {
								ySeg[j] += kv * v
							}
							continue
						}
						jj := ojLo*d.Stride - d.Pad + kj
						for oj := ojLo; oj < ojHi; oj++ {
							yRow[oj] += kv * xIn[ii*w+jj]
							jj += d.Stride
						}
					}
				}
			}
		}
	}
	return out
}

// Backward accumulates per-channel filter gradients and returns dX.
func (d *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.in == nil {
		panic(fmt.Sprintf("nn: depthwise %s Backward without a train-mode Forward", d.weight.Name))
	}
	n, c := grad.Shape[0], grad.Shape[1]
	h, w := d.in.Shape[2], d.in.Shape[3]
	dx := d.ws.Zeros(n, c, h, w) // the taps accumulate into it
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			xIn := d.in.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			g := grad.Data[(s*c+ch)*d.oh*d.ow : (s*c+ch+1)*d.oh*d.ow]
			ker := d.weight.Val.Data[ch*d.K*d.K : (ch+1)*d.K*d.K]
			dker := d.weight.Grad.Data[ch*d.K*d.K : (ch+1)*d.K*d.K]
			dxs := dx.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			for ki := 0; ki < d.K; ki++ {
				oiLo, oiHi := tapRange(ki, d.Stride, d.Pad, h, d.oh)
				for kj := 0; kj < d.K; kj++ {
					kv := ker[ki*d.K+kj]
					ojLo, ojHi := tapRange(kj, d.Stride, d.Pad, w, d.ow)
					if ojHi <= ojLo {
						continue
					}
					acc := 0.0
					for oi := oiLo; oi < oiHi; oi++ {
						ii := oi*d.Stride - d.Pad + ki
						gRow := g[oi*d.ow : (oi+1)*d.ow]
						if d.Stride == 1 {
							off := ii*w + kj - d.Pad
							xSeg := xIn[off+ojLo : off+ojHi]
							dxSeg := dxs[off+ojLo : off+ojHi]
							gSeg := gRow[ojLo:ojHi]
							for j, gv := range gSeg {
								acc += gv * xSeg[j]
								dxSeg[j] += gv * kv
							}
							continue
						}
						jj := ojLo*d.Stride - d.Pad + kj
						for oj := ojLo; oj < ojHi; oj++ {
							gv := gRow[oj]
							acc += gv * xIn[ii*w+jj]
							dxs[ii*w+jj] += gv * kv
							jj += d.Stride
						}
					}
					dker[ki*d.K+kj] += acc
				}
			}
			if d.UseBias {
				s := 0.0
				for _, v := range g {
					s += v
				}
				d.bias.Grad.Data[ch] += s
			}
		}
	}
	return dx
}

// Params returns the weight (and bias) parameters.
func (d *DepthwiseConv2D) Params() []*Param {
	if d.UseBias {
		return []*Param{d.weight, d.bias}
	}
	return []*Param{d.weight}
}
