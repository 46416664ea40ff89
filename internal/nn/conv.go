package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

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

	// Samples touch disjoint operand and output blocks, so up to
	// Parallelism workers take them one at a time off a shared counter
	// (each element is still computed by exactly one fixed code path, so
	// results stay bitwise independent of who computed it). Everything the
	// workers need is taken from the workspace here, before they start: it
	// serves one goroutine at a time.
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
		var next atomic.Int64
		run := func(wk int) {
			for s := int(next.Add(1)) - 1; s < n; s = int(next.Add(1)) - 1 {
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
					continue
				}
				v := workers[wk]
				v.op.Data = op
				if !inPlace {
					v.x.Data = x.Data[s*inSz : (s+1)*inSz]
					tensor.Im2Col(v.x, c.K, c.K, c.Stride, c.Pad, v.op)
				}
				v.out.Data = out.Data[s*outSz : (s+1)*outSz]
				tensor.Gemm(false, false, 1, wm, v.op, 0, v.out)
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
// Each (sample, channel) plane is swept once per kernel row: a row kernel
// applies one kernel row's taps to a whole output row (forward, filter
// gradient) or gathers them into a whole input row (input gradient), with
// the padding-free span of the row hoisted out of the per-element bounds.
// Every output and input-gradient element still sums its taps in (ki, kj)
// order, starting from the bias or from +0, and every filter tap its
// products in (oi, oj) order — the arithmetic of a tap-by-tap loop.
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
	K, S, P := d.K, d.Stride, d.Pad
	d.oh = tensor.ConvOutSize(h, K, S, P)
	d.ow = tensor.ConvOutSize(w, K, S, P)
	lo, hi := fullSpan(K, S, P, w, d.ow)
	// No zero fill: the first kernel row that reaches an output row writes
	// it, starting from the bias or from +0.
	out := d.ws.Alloc(n, c, d.oh, d.ow)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			xIn := x.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			ker := d.weight.Val.Data[ch*K*K : (ch+1)*K*K]
			yOut := out.Data[(s*c+ch)*d.oh*d.ow : (s*c+ch+1)*d.oh*d.ow]
			init := 0.0
			if d.UseBias {
				init = d.bias.Val.Data[ch]
			}
			for oi := 0; oi < d.oh; oi++ {
				yRow := yOut[oi*d.ow : (oi+1)*d.ow]
				i0 := oi*S - P
				kiLo, kiHi := max(0, -i0), min(K, h-i0)
				if K == 3 && kiHi-kiLo == 3 {
					dwForward3(yRow, init, xIn[i0*w:(i0+3)*w], ker, S, P, lo, hi)
					continue
				}
				if kiLo >= kiHi {
					for j := range yRow {
						yRow[j] = init
					}
				}
				for ki := kiLo; ki < kiHi; ki++ {
					dwForwardRow(yRow, ki == kiLo, init, xIn[(i0+ki)*w:(i0+ki+1)*w], ker[ki*K:(ki+1)*K], S, P, lo, hi)
				}
			}
		}
	}
	return out
}

// fullSpan returns the outputs [lo, hi) of a row at which all K taps land
// inside an input row of width w.
func fullSpan(k, stride, pad, w, out int) (lo, hi int) {
	lo = (pad + stride - 1) / stride
	if w+pad >= k {
		hi = min(out, (w+pad-k)/stride+1)
	}
	return lo, max(lo, hi)
}

// dwForwardRow adds one kernel row's taps k into the output row y, in kj
// order, from the input row x: y[oj] += k[kj]·x[oj·stride−pad+kj] over the
// taps that land inside x, which is all of them on [lo, hi). The first
// kernel row to reach y starts it from init instead of reading it.
func dwForwardRow(y []float64, first bool, init float64, x, k []float64, stride, pad, lo, hi int) {
	K, w := len(k), len(x)
	for oj := 0; oj < len(y); oj++ {
		j0 := oj*stride - pad
		if oj == lo && K == 3 && hi > lo {
			k0, k1, k2 := k[0], k[1], k[2]
			for ; oj < hi; oj++ {
				acc := init
				if !first {
					acc = y[oj]
				}
				xs := x[j0 : j0+3 : j0+3]
				y[oj] = acc + k0*xs[0] + k1*xs[1] + k2*xs[2]
				j0 += stride
			}
			oj--
			continue
		}
		acc := init
		if !first {
			acc = y[oj]
		}
		for kj := max(0, -j0); kj < min(K, w-j0); kj++ {
			acc += k[kj] * x[j0+kj]
		}
		y[oj] = acc
	}
}

// dwForward3 is dwForwardRow for all three rows of a 3×3 kernel at once,
// x holding the three input rows: each output is written once, from init
// and its taps in (ki, kj) order.
func dwForward3(y []float64, init float64, x, k []float64, stride, pad, lo, hi int) {
	w := len(x) / 3
	for oj := 0; oj < len(y); oj++ {
		if oj == lo && hi > lo {
			oj = hi - 1
			continue
		}
		j0 := oj*stride - pad
		kjLo, kjHi := max(0, -j0), min(3, w-j0)
		acc := init
		for ki := 0; ki < 3; ki++ {
			for kj := kjLo; kj < kjHi; kj++ {
				acc += k[ki*3+kj] * x[ki*w+j0+kj]
			}
		}
		y[oj] = acc
	}
	k = k[:9]
	k0, k1, k2, k3, k4, k5, k6, k7, k8 := k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]
	r0, r1, r2 := x[:w], x[w:2*w], x[2*w:3*w]
	j0 := lo*stride - pad
	for oj := lo; oj < hi; oj++ {
		a, b, c := r0[j0:j0+3:j0+3], r1[j0:j0+3:j0+3], r2[j0:j0+3:j0+3]
		y[oj] = init + k0*a[0] + k1*a[1] + k2*a[2] + k3*b[0] + k4*b[1] + k5*b[2] + k6*c[0] + k7*c[1] + k8*c[2]
		j0 += stride
	}
}

// Backward accumulates per-channel filter gradients and returns dX.
func (d *DepthwiseConv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.in == nil {
		panic(fmt.Sprintf("nn: depthwise %s Backward without a train-mode Forward", d.weight.Name))
	}
	n, c := grad.Shape[0], grad.Shape[1]
	h, w := d.in.Shape[2], d.in.Shape[3]
	K, S, P := d.K, d.Stride, d.Pad
	lo, hi := fullSpan(K, S, P, w, d.ow)
	// With stride 1, every tap of the input-gradient elements in
	// [dlo, dhi) of a row lands inside the output row.
	dlo, dhi := max(0, K-1-P), min(w, d.ow-P)
	dhi = max(dlo, dhi)
	// No zero fill: every input row is written by the first kernel row
	// that reaches it, or zeroed when none does.
	dx := d.ws.Alloc(n, c, h, w)
	zeroRow := d.ws.Zeros(d.ow).Data
	// One accumulator per filter tap and plane. A tap whose column range
	// is empty (not live) never adds its (+0) sum to the gradient.
	var buf [16]float64
	var liveBuf [4]bool
	acc, live := buf[:0], liveBuf[:0]
	if K*K > len(buf) {
		acc, live = make([]float64, 0, K*K), make([]bool, 0, K)
	}
	acc = acc[:K*K]
	for kj := 0; kj < K; kj++ {
		lo, hi := tapRange(kj, S, P, w, d.ow)
		live = append(live, hi > lo)
	}
	// q0, r0 = P / S, P % S start the walk down each plane's input rows:
	// at row ii, (q, r) = ((ii+P) / S, (ii+P) % S), and the kernel rows
	// that reach it are ki = r, r+S, … at output rows q, q−1, …
	q0, r0 := P/S, P%S
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			xIn := d.in.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			g := grad.Data[(s*c+ch)*d.oh*d.ow : (s*c+ch+1)*d.oh*d.ow]
			ker := d.weight.Val.Data[ch*K*K : (ch+1)*K*K]
			dker := d.weight.Grad.Data[ch*K*K : (ch+1)*K*K]
			dxs := dx.Data[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			clear(acc)
			for oi := 0; oi < d.oh; oi++ {
				gRow := g[oi*d.ow : (oi+1)*d.ow]
				i0 := oi*S - P
				kiLo, kiHi := max(0, -i0), min(K, h-i0)
				if K == 3 && kiHi-kiLo >= 2 {
					// A kernel row that falls off the plane is stood in for
					// by its neighbour, and its three sums are put back
					// afterwards: no other sum reads them.
					var r [3][]float64
					for ki := range r {
						ii := i0 + min(max(ki, kiLo), kiHi-1)
						r[ki] = xIn[ii*w : (ii+1)*w]
					}
					off := 0
					if kiLo == 0 {
						off = 6
					}
					saved := [3]float64(acc[off : off+3])
					dwFilter3(acc, gRow, r[0], r[1], r[2], S, P, lo, hi)
					if kiHi-kiLo == 2 {
						copy(acc[off:off+3], saved[:])
					}
					continue
				}
				for ki := kiLo; ki < kiHi; ki++ {
					dwFilterRow(acc[ki*K:(ki+1)*K], gRow, xIn[(i0+ki)*w:(i0+ki+1)*w], S, P)
				}
			}
			for t := 0; t < K*K; t += K {
				for kj, ok := range live {
					if ok {
						dker[t+kj] += acc[t+kj]
					}
				}
			}
			q, r := q0, r0
			for ii := 0; ii < h; ii++ {
				dxRow := dxs[ii*w : (ii+1)*w]
				if S == 1 && K == 3 && q >= 1 && q <= d.oh && d.oh >= 2 {
					// Kernel row ki reaches output row q−ki. One that falls
					// off the plane gathers a zero row through a zeroed
					// filter row instead: its products are exact +0s, and
					// a sum that starts from +0 is never −0, so adding
					// them changes no bit.
					k9 := [9]float64(ker)
					ga, gb, gc := zeroRow, g[(q-1)*d.ow:q*d.ow], zeroRow
					if q < d.oh {
						ga = g[q*d.ow : (q+1)*d.ow]
					} else {
						clear(k9[:3])
					}
					if q >= 2 {
						gc = g[(q-2)*d.ow : (q-1)*d.ow]
					} else {
						clear(k9[6:])
					}
					dwInput3(dxRow, ga, gb, gc, k9[:], P, dlo, dhi)
				} else {
					first := true
					for ki, oi := r, q; ki < K && oi >= 0; ki, oi = ki+S, oi-1 {
						if oi < d.oh {
							dwInputRow(dxRow, first, g[oi*d.ow:(oi+1)*d.ow], ker[ki*K:(ki+1)*K], S, P)
							first = false
						}
					}
					if first {
						clear(dxRow)
					}
				}
				if r++; r == S {
					q, r = q+1, 0
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

// dwFilterRow adds, for each tap kj of one kernel row, the products
// g[oj]·x[oj·stride−pad+kj] over the output row g to acc[kj], oj
// ascending, skipping taps that land outside the input row x.
func dwFilterRow(acc, g, x []float64, stride, pad int) {
	K, w := len(acc), len(x)
	for oj, gv := range g {
		j0 := oj*stride - pad
		for kj := max(0, -j0); kj < min(K, w-j0); kj++ {
			acc[kj] += gv * x[j0+kj]
		}
	}
}

// dwFilter3 is dwFilterRow for all three rows of a 3×3 kernel at once,
// from the input rows r0, r1 and r2: nine independent chains, each still
// summing over oj in ascending order. On [lo, hi) the chains live in
// registers; outside it a column of taps is skipped where it leaves the
// rows.
func dwFilter3(acc, g, r0, r1, r2 []float64, stride, pad, lo, hi int) {
	w := len(r0)
	r1, r2 = r1[:w], r2[:w]
	acc = acc[:9]
	edge := func(oj int) {
		gv, j0 := g[oj], oj*stride-pad
		for kj := max(0, -j0); kj < min(3, w-j0); kj++ {
			acc[kj] += gv * r0[j0+kj]
			acc[3+kj] += gv * r1[j0+kj]
			acc[6+kj] += gv * r2[j0+kj]
		}
	}
	for oj := 0; oj < min(lo, len(g)); oj++ {
		edge(oj)
	}
	if hi > lo {
		a0, a1, a2, a3, a4, a5, a6, a7, a8 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7], acc[8]
		j0 := lo*stride - pad
		for _, gv := range g[lo:hi] {
			p, q, r := r0[j0:j0+3:j0+3], r1[j0:j0+3:j0+3], r2[j0:j0+3:j0+3]
			a0 += gv * p[0]
			a1 += gv * p[1]
			a2 += gv * p[2]
			a3 += gv * q[0]
			a4 += gv * q[1]
			a5 += gv * q[2]
			a6 += gv * r[0]
			a7 += gv * r[1]
			a8 += gv * r[2]
			j0 += stride
		}
		acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7], acc[8] = a0, a1, a2, a3, a4, a5, a6, a7, a8
	}
	for oj := max(hi, lo); oj < len(g); oj++ {
		edge(oj)
	}
}

// dwInputRow gathers one kernel row's taps k into the input-gradient row
// dx, in kj order, from the output-gradient row g: dx[jj] += g[oj]·k[kj]
// over the taps with oj·stride = jj+pad−kj inside g. The first kernel row
// to reach dx starts it from +0 instead of reading it.
func dwInputRow(dx []float64, first bool, g, k []float64, stride, pad int) {
	K, ow := len(k), len(g)
	if K == 3 && stride == 2 && pad == 1 {
		dwInputRowS2(dx, first, g, k)
		return
	}
	// q, r = (jj+pad) / stride, (jj+pad) % stride, carried along jj: the
	// taps that reach jj are kj = r, r+stride, … at oj = q, q−1, …; those
	// with oj ≥ ow are stepped over, and the walk stops at oj < 0.
	q, r := pad/stride, pad%stride
	for jj := range dx {
		var acc float64
		if !first {
			acc = dx[jj]
		}
		kj, oj := r, q
		if oj >= ow {
			kj, oj = kj+(oj-ow+1)*stride, ow-1
		}
		for end := min(K, jj+pad+1); kj < end; kj, oj = kj+stride, oj-1 {
			acc += g[oj] * k[kj]
		}
		dx[jj] = acc
		if r++; r == stride {
			q, r = q+1, 0
		}
	}
}

// dwInputRowS2 is dwInputRow for MobileNetV2's downsampling shape, a 3×3
// kernel at stride 2 with padding 1: the element 2m takes tap 1 from
// output m, the element 2m+1 taps 0 and 2 from outputs m+1 and m.
func dwInputRowS2(dx []float64, first bool, g, k []float64) {
	k0, k1, k2 := k[0], k[1], k[2]
	ow := len(g)
	for m := 0; 2*m < len(dx); m++ {
		var acc float64
		if !first {
			acc = dx[2*m]
		}
		if m < ow {
			acc += g[m] * k1
		}
		dx[2*m] = acc
		if 2*m+1 == len(dx) {
			break
		}
		acc = 0
		if !first {
			acc = dx[2*m+1]
		}
		if m+1 < ow {
			acc += g[m+1] * k0
		}
		if m < ow {
			acc += g[m] * k2
		}
		dx[2*m+1] = acc
	}
}

// dwInput3 gathers all three rows of a 3×3 kernel at stride 1 into the
// input-gradient row dx from ga, gb and gc, the output-gradient rows the
// kernel rows 0, 1 and 2 reach: each element is written once, from +0 and
// its taps in (ki, kj) order. Every tap of the elements in [lo, hi) lands
// inside the rows.
func dwInput3(dx, ga, gb, gc, k []float64, pad, lo, hi int) {
	ow := len(ga)
	gb, gc, k = gb[:ow], gc[:ow], k[:9]
	for jj := 0; jj < len(dx); jj++ {
		if jj == lo && hi > lo {
			jj = hi - 1
			continue
		}
		var acc float64
		for kj := max(0, jj+pad-ow+1); kj < min(3, jj+pad+1); kj++ {
			acc += ga[jj+pad-kj] * k[kj]
		}
		for kj := max(0, jj+pad-ow+1); kj < min(3, jj+pad+1); kj++ {
			acc += gb[jj+pad-kj] * k[3+kj]
		}
		for kj := max(0, jj+pad-ow+1); kj < min(3, jj+pad+1); kj++ {
			acc += gc[jj+pad-kj] * k[6+kj]
		}
		dx[jj] = acc
	}
	k0, k1, k2, k3, k4, k5, k6, k7, k8 := k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]
	var zero float64
	for jj := lo; jj < hi; jj++ {
		o := jj + pad - 2
		a, b, c := ga[o:o+3:o+3], gb[o:o+3:o+3], gc[o:o+3:o+3]
		dx[jj] = zero + a[2]*k0 + a[1]*k1 + a[0]*k2 + b[2]*k3 + b[1]*k4 + b[0]*k5 + c[2]*k6 + c[1]*k7 + c[0]*k8
	}
}

// Params returns the weight (and bias) parameters.
func (d *DepthwiseConv2D) Params() []*Param {
	if d.UseBias {
		return []*Param{d.weight, d.bias}
	}
	return []*Param{d.weight}
}
