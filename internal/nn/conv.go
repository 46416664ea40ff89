package nn

import (
	"fmt"
	"math"
	"math/rand"

	"adaptivefl/internal/tensor"
)

// Conv2D is a 2-D convolution with square kernels, computed one sample
// at a time as a GEMM whose destination is a view straight into the [N,
// OutC, OH, OW] output, so no scatter copy reorders the result (and
// backward's gradient gather disappears symmetrically — the grad's
// per-sample [OutC, OH*OW] blocks are already GEMM-shaped). How a
// sample's [InC*K*K, OH*OW] unfold reaches the GEMM depends on the shape:
//   - stride 1, K×K, output rows a multiple of 4 wide: it is read in
//     place from the sample copied into a zero-padded plane [InC, H+2P,
//     W+2P] (the input itself when P is 0), and backward adds each row of
//     its gradient into dX as soon as it is summed (tensor.ConvPlane and
//     friends);
//   - pointwise (1×1, stride 1, no padding): the sample's [InC, H*W] plane
//     already is the unfold, and backward writes its gradient straight
//     into dX;
//   - otherwise (stride 2, narrow or odd-width stride-1 outputs): Im2Col
//     writes it out as a column block, and Col2Im folds its gradient back.
//
// Weight layout is [OutC, InC, K, K]; input batches are [N, InC, H, W].
type Conv2D struct {
	InC, OutC, K, Stride, Pad int
	UseBias                   bool

	weight, bias *Param
	stepAlloc

	// forward cache, set by train-mode forwards only: an eval-mode
	// forward clears it, so inference pins neither the input nor the
	// unfold operands and a Backward after it fails loudly.
	in     *tensor.Tensor
	saved  []float64 // N per-sample unfold operands: padded planes, column blocks, or in.Data
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

// implicit reports whether the unfold is read in place from a padded
// plane: at stride 1, when the output rows are a multiple of 4 wide, so
// that the row kernels' 4-wide loads never straddle two of them. (At
// 14×14, 7×7 and 2×2 outputs the in-place kernels lose to Im2Col by 2–5×;
// see docs/BENCH.md.) It reads the output width of the last Forward.
func (c *Conv2D) implicit() bool { return c.Stride == 1 && !c.pointwise() && c.ow%4 == 0 }

// operand returns the size of one sample's unfold operand for an input
// of h×w, and whether that operand is the sample's own slice of the
// input.
func (c *Conv2D) operand(h, w int) (size int, inPlace bool) {
	switch {
	case c.pointwise():
		return c.InC * h * w, true
	case c.implicit():
		return c.InC * (h + 2*c.Pad) * (w + 2*c.Pad), c.Pad == 0
	default:
		return c.InC * c.K * c.K * c.oh * c.ow, false
	}
}

// Forward computes the convolution over a batch.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, ci, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ci != c.InC {
		panic(fmt.Sprintf("nn: conv %s expects %d input channels, got %d", c.weight.Name, c.InC, ci))
	}
	c.oh = tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	c.ow = tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
	spatial, rows := c.oh*c.ow, c.InC*c.K*c.K
	inSz, outSz := ci*h*w, c.OutC*spatial
	opSz, inPlace := c.operand(h, w)
	implicit := c.implicit()

	// Samples touch disjoint operand and output blocks, so tensor.ForEach
	// hands them to up to Parallelism workers (each element is still
	// computed by exactly one fixed code path, so results stay bitwise
	// independent of who computed it). A worker's number w picks its views
	// and, in eval mode, its operand block. Everything the workers need is
	// taken from the workspace here, before they start: it serves one
	// goroutine at a time.
	par := max(1, min(tensor.Parallelism(), n))
	out := c.ws.Alloc(n, c.OutC, c.oh, c.ow)
	var ops []float64
	switch {
	case inPlace:
		ops = x.Data
	case train:
		ops = c.kept(n * opSz) // for Backward
	default:
		ops = c.kept(par * opSz) // one block per worker
	}
	c.in, c.saved = nil, nil
	if train {
		c.in, c.saved = x, ops
	}
	if n > 0 {
		// A worker of the Im2Col and pointwise paths re-points its three
		// views per sample; the implicit path works on slices.
		wm := c.ws.View(c.weight.Val.Data, c.OutC, rows)
		type views struct{ x, op, out *tensor.Tensor }
		var workers []views
		if !implicit {
			workers = make([]views, par)
			for i := range workers {
				workers[i] = views{
					op:  c.ws.View(ops[:opSz], rows, spatial),
					out: c.ws.View(out.Data[:outSz], c.OutC, spatial),
				}
				if !inPlace {
					workers[i].x = c.ws.View(x.Data[:inSz], ci, h, w)
				}
			}
		}
		tensor.ForEach(n, par, func(wk, s int) {
			block := s
			if !train && !inPlace {
				block = wk
			}
			op := ops[block*opSz : (block+1)*opSz]
			if implicit {
				if !inPlace {
					tensor.PadPlane(op, x.Data[s*inSz:(s+1)*inSz], ci, h, w, c.Pad)
				}
				tensor.ConvPlane(c.weight.Val.Data, c.OutC, op, ci, h+2*c.Pad, w+2*c.Pad, c.K, out.Data[s*outSz:(s+1)*outSz])
				return
			}
			v := workers[wk]
			v.op.Data = op
			if !inPlace {
				v.x.Data = x.Data[s*inSz : (s+1)*inSz]
				tensor.Im2Col(v.x, c.K, c.K, c.Stride, c.Pad, v.op)
			}
			v.out.Data = out.Data[s*outSz : (s+1)*outSz]
			tensor.Gemm(false, false, 1, wm, v.op, 0, v.out)
		})
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
	inSz, outSz := c.InC*h*w, c.OutC*spatial
	opSz, _ := c.operand(h, w)
	pointwise, implicit := c.pointwise(), c.implicit()

	// dX needs no zero fill: every path writes each sample's plane whole
	// (ConvPlaneInputGrad and Col2Im clear it before they fold into it,
	// and the pointwise GEMM has beta 0).
	dx := c.ws.Alloc(n, c.InC, h, w)
	if n == 0 {
		return dx
	}
	var scratch, wt []float64
	var dwm, wm, gS, opS, dcols, dxS *tensor.Tensor
	switch {
	case implicit:
		if c.Pad > 0 {
			scratch = c.ws.Alloc(opSz).Data // the padded dX plane
		}
		wt = c.ws.Alloc(rows * c.OutC).Data // Wᵀ, one row per unfold row
		for o, wo := range c.weight.Val.Data {
			wt[(o%rows)*c.OutC+o/rows] = wo
		}
	case pointwise:
		dcols = c.ws.View(dx.Data[:inSz], rows, spatial)
	default:
		dcols = c.ws.Alloc(rows, spatial)
		dxS = c.ws.View(dx.Data[:inSz], c.InC, h, w)
	}
	if !implicit {
		dwm = c.ws.View(c.weight.Grad.Data, c.OutC, rows)
		wm = c.ws.View(c.weight.Val.Data, c.OutC, rows)
		gS = c.ws.View(grad.Data[:outSz], c.OutC, spatial)
		opS = c.ws.View(c.saved[:opSz], rows, spatial)
	}
	for s := 0; s < n; s++ {
		g := grad.Data[s*outSz : (s+1)*outSz]
		op := c.saved[s*opSz : (s+1)*opSz]
		switch {
		case implicit:
			ph, pw := h+2*c.Pad, w+2*c.Pad
			tensor.ConvPlaneFilterGrad(g, c.OutC, op, c.InC, ph, pw, c.K, c.weight.Grad.Data)
			tensor.ConvPlaneInputGrad(wt, g, c.OutC, c.InC, h, w, c.K, c.Pad, scratch, dx.Data[s*inSz:(s+1)*inSz])
		default:
			gS.Data, opS.Data = g, op
			// dW += g_s · op_sᵀ
			tensor.Gemm(false, true, 1, gS, opS, 1, dwm)
			// dcols_s = Wᵀ · g_s: the sample's dX plane itself when
			// pointwise, folded back into it otherwise.
			if pointwise {
				dcols.Data = dx.Data[s*inSz : (s+1)*inSz]
			}
			tensor.Gemm(true, false, 1, wm, gS, 0, dcols)
			if !pointwise {
				dxS.Data = dx.Data[s*inSz : (s+1)*inSz]
				tensor.Col2Im(dcols, c.InC, h, w, c.K, c.K, c.Stride, c.Pad, dxS)
			}
		}
		if c.UseBias {
			for o := 0; o < c.OutC; o++ {
				row := g[o*spatial : (o+1)*spatial]
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
// Forward and Backward make one tensor.DepthwisePlane call per (sample,
// channel) plane, on the caller's goroutine. For MobileNetV2's 3×3,
// padding-1 planes those are whole-plane kernels: on amd64 with AVX the
// stride-1 forward and input gradient sweep four adjacent columns of a
// row per vector, the filter gradient keeps each of its nine tap sums in
// a lane of its own at any stride, and the stride-2 forward and input
// gradient run in Go around AVX kernels for their interiors; other shapes
// run tap loops. Every output and input-gradient element still sums its
// taps in (ki, kj) order, starting from the bias or from +0, and every
// filter tap its products in (oi, oj) order — the arithmetic of a
// tap-by-tap loop.
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
	p := tensor.NewDepthwisePlane(d.K, d.Stride, d.Pad, h, w)
	d.oh, d.ow = p.OH, p.OW
	kk, in, out := d.K*d.K, h*w, p.OH*p.OW
	// No zero fill: the plane kernels write every output.
	y := d.ws.Alloc(n, c, d.oh, d.ow)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			init := 0.0
			if d.UseBias {
				init = d.bias.Val.Data[ch]
			}
			pl := s*c + ch
			p.Forward(y.Data[pl*out:(pl+1)*out], x.Data[pl*in:(pl+1)*in], d.weight.Val.Data[ch*kk:(ch+1)*kk], init)
		}
	}
	return y
}

// Backward accumulates per-channel filter gradients and returns dX.
func (d *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.in == nil {
		panic(fmt.Sprintf("nn: depthwise %s Backward without a train-mode Forward", d.weight.Name))
	}
	n, c := grad.Shape[0], grad.Shape[1]
	h, w := d.in.Shape[2], d.in.Shape[3]
	K := d.K
	p := tensor.NewDepthwisePlane(K, d.Stride, d.Pad, h, w)
	kk, in, out := K*K, h*w, p.OH*p.OW
	// No zero fill: the plane kernels write every input gradient.
	dx := d.ws.Alloc(n, c, h, w)
	// One sum per filter tap and plane. A tap whose column range is empty
	// (not live) never adds its (+0) sum to the gradient.
	var buf [25]float64
	var liveBuf [5]bool
	acc, live := buf[:0], liveBuf[:0]
	if kk > len(buf) {
		acc, live = make([]float64, 0, kk), make([]bool, 0, K)
	}
	acc = acc[:kk]
	for kj := 0; kj < K; kj++ {
		lo, hi := tapRange(kj, d.Stride, d.Pad, w, d.ow)
		live = append(live, hi > lo)
	}
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			pl := s*c + ch
			g := grad.Data[pl*out : (pl+1)*out]
			ker := d.weight.Val.Data[ch*kk : (ch+1)*kk]
			dker := d.weight.Grad.Data[ch*kk : (ch+1)*kk]
			p.FilterGrad(acc, g, d.in.Data[pl*in:(pl+1)*in])
			for t := 0; t < kk; t += K {
				for kj, ok := range live {
					if ok {
						dker[t+kj] += acc[t+kj]
					}
				}
			}
			p.InputGrad(dx.Data[pl*in:(pl+1)*in], g, ker)
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

// tapRange returns the output index range [lo,hi) along one axis for which
// the input index oi*stride - pad + k stays inside [0, in).
func tapRange(k, stride, pad, in, out int) (lo, hi int) {
	lo = 0
	if pad > k {
		lo = (pad - k + stride - 1) / stride
	}
	hi = out
	if last := in - 1 + pad - k; last < 0 {
		hi = 0
	} else if last/stride+1 < hi {
		hi = last/stride + 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Params returns the weight (and bias) parameters.
func (d *DepthwiseConv2D) Params() []*Param {
	if d.UseBias {
		return []*Param{d.weight, d.bias}
	}
	return []*Param{d.weight}
}
