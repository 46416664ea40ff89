package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/tensor"
)

// Frozen copies of the rectifier, batch-norm and depthwise loops as they
// stood before the branch-free, fused and row-swept kernels: the same
// loop nests, written over plain slices. They are the bitwise references
// of the tests below — every kernel that replaces them must reproduce
// their bits, special values included — and must not be "improved".

func refPasses(clamp, v float64) bool { return v > 0 && !(clamp > 0 && v > clamp) }

func refReLU(clamp float64, x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		switch {
		case refPasses(clamp, v):
			out[i] = v
		case v > 0:
			out[i] = clamp
		default:
			out[i] = 0
		}
	}
	return out
}

func refReLUBackward(clamp float64, in, grad []float64) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		if refPasses(clamp, v) {
			out[i] = grad[i]
		} else {
			out[i] = 0
		}
	}
	return out
}

// refBN is the pre-fusion BatchNorm2D over its own copies of the
// parameters.
type refBN struct {
	c                        int
	eps, momentum            float64
	gamma, beta, rMean, rVar []float64
	dGamma, dBeta            []float64
	xhat, invStd             []float64
}

func newRefBN(b *BatchNorm2D) *refBN {
	cp := func(v []float64) []float64 { return append([]float64(nil), v...) }
	return &refBN{c: b.C, eps: b.Eps, momentum: b.Momentum,
		gamma: cp(b.gamma.Val.Data), beta: cp(b.beta.Val.Data),
		rMean: cp(b.runningMean.Val.Data), rVar: cp(b.runningVar.Val.Data),
		dGamma: cp(b.gamma.Grad.Data), dBeta: cp(b.beta.Grad.Data)}
}

func (b *refBN) forward(x []float64, n, c, spatial int, train bool) []float64 {
	out := make([]float64, len(x))
	m := float64(n * spatial)
	if train {
		b.xhat, b.invStd = make([]float64, len(x)), make([]float64, c)
		for ch := 0; ch < c; ch++ {
			mean, sq := 0.0, 0.0
			for s := 0; s < n; s++ {
				base := (s*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					v := x[base+i]
					mean += v
					sq += v * v
				}
			}
			mean /= m
			variance := sq/m - mean*mean
			if variance < 0 {
				variance = 0
			}
			inv := 1 / math.Sqrt(variance+b.eps)
			b.invStd[ch] = inv
			g, bt := b.gamma[ch], b.beta[ch]
			for s := 0; s < n; s++ {
				base := (s*c + ch) * spatial
				for i := 0; i < spatial; i++ {
					xh := (x[base+i] - mean) * inv
					b.xhat[base+i] = xh
					out[base+i] = g*xh + bt
				}
			}
			b.rMean[ch] = (1-b.momentum)*b.rMean[ch] + b.momentum*mean
			b.rVar[ch] = (1-b.momentum)*b.rVar[ch] + b.momentum*variance
		}
		return out
	}
	for ch := 0; ch < c; ch++ {
		inv := 1 / math.Sqrt(b.rVar[ch]+b.eps)
		mean := b.rMean[ch]
		g, bt := b.gamma[ch], b.beta[ch]
		for s := 0; s < n; s++ {
			base := (s*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				out[base+i] = g*(x[base+i]-mean)*inv + bt
			}
		}
	}
	return out
}

func (b *refBN) backward(grad []float64, n, c, spatial int) []float64 {
	m := float64(n * spatial)
	dx := make([]float64, len(grad))
	for ch := 0; ch < c; ch++ {
		g := b.gamma[ch]
		inv := b.invStd[ch]
		sumDy, sumDyXhat := 0.0, 0.0
		for s := 0; s < n; s++ {
			base := (s*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				dy := grad[base+i]
				sumDy += dy
				sumDyXhat += dy * b.xhat[base+i]
			}
		}
		b.dBeta[ch] += sumDy
		b.dGamma[ch] += sumDyXhat
		k1 := g * inv / m
		for s := 0; s < n; s++ {
			base := (s*c + ch) * spatial
			for i := 0; i < spatial; i++ {
				dy := grad[base+i]
				xh := b.xhat[base+i]
				dx[base+i] = k1 * (m*dy - sumDy - xh*sumDyXhat)
			}
		}
	}
	return dx
}

// refDepthwise is the pre-row-sweep DepthwiseConv2D: taps outermost, the
// output and dX zero-filled (or bias-filled) and accumulated into.
type refDepthwise struct {
	k, stride, pad, oh, ow int
	ker, bias              []float64 // bias nil when the layer has none
	dKer, dBias            []float64
}

func newRefDepthwise(d *DepthwiseConv2D) *refDepthwise {
	cp := func(p *Param) ([]float64, []float64) {
		if p == nil {
			return nil, nil
		}
		return append([]float64(nil), p.Val.Data...), append([]float64(nil), p.Grad.Data...)
	}
	r := &refDepthwise{k: d.K, stride: d.Stride, pad: d.Pad}
	r.ker, r.dKer = cp(d.weight)
	r.bias, r.dBias = cp(d.bias)
	return r
}

func (d *refDepthwise) forward(x []float64, n, c, h, w int) []float64 {
	d.oh = tensor.ConvOutSize(h, d.k, d.stride, d.pad)
	d.ow = tensor.ConvOutSize(w, d.k, d.stride, d.pad)
	out := make([]float64, n*c*d.oh*d.ow)
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			xIn := x[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			ker := d.ker[ch*d.k*d.k : (ch+1)*d.k*d.k]
			yOut := out[(s*c+ch)*d.oh*d.ow : (s*c+ch+1)*d.oh*d.ow]
			if d.bias != nil {
				for i := range yOut {
					yOut[i] = d.bias[ch]
				}
			}
			for ki := 0; ki < d.k; ki++ {
				oiLo, oiHi := tapRange(ki, d.stride, d.pad, h, d.oh)
				for kj := 0; kj < d.k; kj++ {
					kv := ker[ki*d.k+kj]
					ojLo, ojHi := tapRange(kj, d.stride, d.pad, w, d.ow)
					if ojHi <= ojLo {
						continue
					}
					for oi := oiLo; oi < oiHi; oi++ {
						ii := oi*d.stride - d.pad + ki
						yRow := yOut[oi*d.ow : (oi+1)*d.ow]
						jj := ojLo*d.stride - d.pad + kj
						for oj := ojLo; oj < ojHi; oj++ {
							yRow[oj] += kv * xIn[ii*w+jj]
							jj += d.stride
						}
					}
				}
			}
		}
	}
	return out
}

func (d *refDepthwise) backward(x, grad []float64, n, c, h, w int) []float64 {
	dx := make([]float64, len(x))
	for s := 0; s < n; s++ {
		for ch := 0; ch < c; ch++ {
			xIn := x[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			g := grad[(s*c+ch)*d.oh*d.ow : (s*c+ch+1)*d.oh*d.ow]
			ker := d.ker[ch*d.k*d.k : (ch+1)*d.k*d.k]
			dker := d.dKer[ch*d.k*d.k : (ch+1)*d.k*d.k]
			dxs := dx[(s*c+ch)*h*w : (s*c+ch+1)*h*w]
			for ki := 0; ki < d.k; ki++ {
				oiLo, oiHi := tapRange(ki, d.stride, d.pad, h, d.oh)
				for kj := 0; kj < d.k; kj++ {
					kv := ker[ki*d.k+kj]
					ojLo, ojHi := tapRange(kj, d.stride, d.pad, w, d.ow)
					if ojHi <= ojLo {
						continue
					}
					acc := 0.0
					for oi := oiLo; oi < oiHi; oi++ {
						ii := oi*d.stride - d.pad + ki
						gRow := g[oi*d.ow : (oi+1)*d.ow]
						jj := ojLo*d.stride - d.pad + kj
						for oj := ojLo; oj < ojHi; oj++ {
							gv := gRow[oj]
							acc += gv * xIn[ii*w+jj]
							dxs[ii*w+jj] += gv * kv
							jj += d.stride
						}
					}
					dker[ki*d.k+kj] += acc
				}
			}
			if d.bias != nil {
				s := 0.0
				for _, v := range g {
					s += v
				}
				d.dBias[ch] += s
			}
		}
	}
	return dx
}

// specials are the values the rectifier's pass test and the −0 handling
// of first writes hinge on.
var specials = []float64{0, math.Copysign(0, -1), 6, math.Nextafter(6, 0), math.Nextafter(6, 7),
	math.Inf(1), math.Inf(-1), math.NaN(), -1, 1e-300, -1e-300}

// sprinkled returns a random tensor with every special value planted in
// it, several times when it is large enough.
func sprinkled(rng *rand.Rand, std float64, shape ...int) *tensor.Tensor {
	t := tensor.Randn(rng, std, shape...)
	for i := range t.Data {
		if rng.Intn(3) == 0 {
			t.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return t
}

// assertBitwise compares bit patterns, except that any NaN matches any
// NaN: when both operands of an add are NaN, x86 returns the payload of
// the one the register allocator placed first, which no source order
// pins — a rebuild of the reference loop itself may flip it.
func assertBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestReLUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := sprinkled(rng, 4, 3, 2, 5, 5)
	for _, r := range []*ReLU{NewReLU(), NewReLU6()} {
		for _, train := range []bool{false, true} {
			assertBitwise(t, fmt.Sprintf("clamp %v forward", r.ClampAt), r.Forward(x, train).Data, refReLU(r.ClampAt, x.Data))
		}
		g := sprinkled(rng, 1, x.Shape...)
		assertBitwise(t, fmt.Sprintf("clamp %v backward", r.ClampAt), r.Backward(g).Data, refReLUBackward(r.ClampAt, x.Data, g.Data))
	}
}

// TestBatchNormMatchesReference runs the layer bare, fused with ReLU and
// fused with ReLU6 against the reference batch norm followed by the
// reference rectifier: train and eval outputs, running statistics, dX,
// and the γ and β gradients, bit for bit. Channels with γ = 0 put β —
// each of the special values in turn — straight onto the rectifier's
// pass test; channel counts that are not a multiple of four leave a
// short last channel group. The planes MobileNetV2 trains on (32×32 down
// to 4×4, and 2×2) and a ragged 7×13 plane follow at n = 1, 3 and 6, with
// 7, 5 and 6 channels — group remainders of 3, 1 and 2 — so that every
// vector path of the kernels, their plane tails and every group size run.
func TestBatchNormMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	shapes := [][4]int{{2, 3, 1, 1}, {1, 5, 2, 2}, {2, 4, 3, 5}, {3, len(specials), 4, 4}, {1, 7, 5, 5}}
	for _, p := range [][2]int{{32, 32}, {16, 16}, {8, 8}, {4, 4}, {2, 2}, {7, 13}} {
		for i, n := range []int{1, 3, 6} {
			shapes = append(shapes, [4]int{n, []int{7, 5, 6}[i], p[0], p[1]})
		}
	}
	for _, shape := range shapes {
		n, c, h, w := shape[0], shape[1], shape[2], shape[3]
		for _, act := range []*ReLU{nil, NewReLU(), NewReLU6()} {
			name := fmt.Sprintf("%v/bare", shape)
			b := NewBatchNorm2D("bn", c)
			if act != nil {
				name = fmt.Sprintf("%v/clamp %v", shape, act.ClampAt)
				b.Rectify(act)
			}
			for ch := 0; ch < c; ch++ {
				b.gamma.Val.Data[ch] = 1 + 3*rng.Float64()
				b.beta.Val.Data[ch] = 3 * rng.NormFloat64()
				if ch%2 == 1 {
					b.gamma.Val.Data[ch] = 0
					b.beta.Val.Data[ch] = specials[ch%len(specials)]
				}
				b.gamma.Grad.Data[ch] = specials[(ch+3)%len(specials)]
			}
			ref := newRefBN(b)
			clamp := 0.0
			if act != nil {
				clamp = act.ClampAt
			}
			rectify := func(v []float64) []float64 {
				if act == nil {
					return v
				}
				return refReLU(clamp, v)
			}

			x := tensor.Randn(rng, 2, n, c, h, w)
			if c > 2 { // one channel of special values: its statistics go NaN
				for s := 0; s < n; s++ {
					for i := 0; i < h*w; i++ {
						x.Data[(s*c+2)*h*w+i] = specials[(s+i)%len(specials)]
					}
				}
			}
			bnOut := ref.forward(x.Data, n, c, h*w, true)
			assertBitwise(t, name+" train forward", b.Forward(x, true).Data, rectify(bnOut))
			assertBitwise(t, name+" running mean", b.runningMean.Val.Data, ref.rMean)
			assertBitwise(t, name+" running var", b.runningVar.Val.Data, ref.rVar)

			g := sprinkled(rng, 1, n, c, h, w)
			dy := g.Data
			if act != nil {
				dy = refReLUBackward(clamp, bnOut, g.Data)
			}
			assertBitwise(t, name+" dX", b.Backward(g).Data, ref.backward(dy, n, c, h*w))
			assertBitwise(t, name+" dGamma", b.gamma.Grad.Data, ref.dGamma)
			assertBitwise(t, name+" dBeta", b.beta.Grad.Data, ref.dBeta)

			assertBitwise(t, name+" eval forward", b.Forward(x, false).Data, rectify(ref.forward(x.Data, n, c, h*w, false)))
		}
	}
}

// TestDepthwiseMatchesReference covers strides 1 and 2, kernel sizes
// whose padding leaves edge taps out, 1×1, 2×2 and odd planes, the planes
// MobileNetV2 trains on (32, 20, 16, 10, 8, 5, 4 and 3 wide), widths on
// either side of a 4-lane boundary and batch sizes 1 to 3, with special
// values in the input, the gradient and the filter, and filter gradients
// that start at −0.
func TestDepthwiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, cfg := range []struct{ k, stride, pad int }{
		{3, 1, 1}, {3, 2, 1}, {3, 1, 0}, {3, 2, 0}, {1, 1, 0}, {5, 1, 2}, {5, 2, 1}, {2, 1, 1}, {3, 3, 2},
	} {
		for _, plane := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {5, 5}, {4, 7}, {8, 8},
			{32, 32}, {16, 16}, {20, 20}, {10, 10}, {4, 4}, {6, 9}, {7, 13}} {
			for _, n := range []int{1, 2, 3} {
				for _, bias := range []bool{false, true} {
					h, w := plane[0], plane[1]
					if tensor.ConvOutSize(h, cfg.k, cfg.stride, cfg.pad) < 1 || tensor.ConvOutSize(w, cfg.k, cfg.stride, cfg.pad) < 1 {
						continue
					}
					name := fmt.Sprintf("k%d s%d p%d %dx%d n%d bias %v", cfg.k, cfg.stride, cfg.pad, h, w, n, bias)
					const c = 3
					d := NewDepthwiseConv2D(rng, "d", c, cfg.k, cfg.stride, cfg.pad, bias)
					for i := range d.weight.Val.Data {
						if rng.Intn(4) == 0 {
							d.weight.Val.Data[i] = specials[rng.Intn(len(specials))]
						}
						d.weight.Grad.Data[i] = math.Copysign(0, -1)
					}
					if bias {
						d.bias.Val.Data[1] = math.Copysign(0, -1)
						d.bias.Grad.Data[0] = math.Copysign(0, -1)
					}
					ref := newRefDepthwise(d)
					x := sprinkled(rng, 1, n, c, h, w)
					if h*w > 1 { // a channel of −0: every product is ±0
						for s := 0; s < n; s++ {
							for i := 0; i < h*w; i++ {
								x.Data[(s*c+1)*h*w+i] = math.Copysign(0, -1)
							}
						}
					}
					y := d.Forward(x, true)
					assertBitwise(t, name+" forward", y.Data, ref.forward(x.Data, n, c, h, w))
					g := sprinkled(rng, 1, y.Shape...)
					assertBitwise(t, name+" dX", d.Backward(g).Data, ref.backward(x.Data, g.Data, n, c, h, w))
					assertBitwise(t, name+" dW", d.weight.Grad.Data, ref.dKer)
					if bias {
						assertBitwise(t, name+" db", d.bias.Grad.Data, ref.dBias)
					}
				}
			}
		}
	}
}

// TestBatchNormReLU6Gradients checks the fused BN→ReLU6 against finite
// differences, with γ and β spread so that outputs land on both sides of
// 0 and of the clamp.
func TestBatchNormReLU6Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	layer := NewBatchNorm2D("bn", 3).Rectify(NewReLU6())
	for i := range layer.gamma.Val.Data {
		layer.gamma.Val.Data[i] = 2 + 2*rng.Float64()
		layer.beta.Val.Data[i] = 1 + 3*rng.Float64()
	}
	x := tensor.Randn(rng, 1, 4, 3, 3, 3)
	out := layer.Forward(x, true)
	var clamped, zeroed int
	for _, v := range out.Data {
		switch v {
		case 6:
			clamped++
		case 0:
			zeroed++
		}
	}
	if clamped == 0 || zeroed == 0 {
		t.Fatalf("probe covers %d clamped and %d zeroed outputs; want both", clamped, zeroed)
	}
	checkLayer(t, "BatchNorm2D+ReLU6", layer, x)
}
