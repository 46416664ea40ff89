package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/tensor"
)

// A frozen copy of Conv2D's explicit unfold as it stood before stride-1
// convolutions read their unfold in place: per sample, Im2Col into a
// column block, one GEMM into the output, and in backward dW += g·colsᵀ,
// dcols = Wᵀ·g and Col2Im. It is the bitwise reference of
// TestConvImplicitMatchesRef and must not be "improved".

func refConvForward(c *Conv2D, x *tensor.Tensor) (out *tensor.Tensor, cols []*tensor.Tensor) {
	n, ci, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOutSize(h, c.K, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.K, c.Stride, c.Pad)
	rows, spatial := ci*c.K*c.K, oh*ow
	wm := c.weight.Val.Reshape(c.OutC, rows)
	out = tensor.New(n, c.OutC, oh, ow)
	for s := 0; s < n; s++ {
		xs := tensor.FromSlice(x.Data[s*ci*h*w:(s+1)*ci*h*w], ci, h, w)
		col := tensor.New(rows, spatial)
		tensor.Im2Col(xs, c.K, c.K, c.Stride, c.Pad, col)
		cols = append(cols, col)
		os := tensor.FromSlice(out.Data[s*c.OutC*spatial:(s+1)*c.OutC*spatial], c.OutC, spatial)
		tensor.Gemm(false, false, 1, wm, col, 0, os)
		if c.UseBias {
			for o := 0; o < c.OutC; o++ {
				for i := range os.Data[o*spatial : (o+1)*spatial] {
					os.Data[o*spatial+i] += c.bias.Val.Data[o]
				}
			}
		}
	}
	return out, cols
}

// refConvBackward accumulates into dw and db and returns dX.
func refConvBackward(c *Conv2D, cols []*tensor.Tensor, grad *tensor.Tensor, h, w int, dw, db []float64) *tensor.Tensor {
	n, spatial := grad.Shape[0], grad.Shape[2]*grad.Shape[3]
	rows := c.InC * c.K * c.K
	wm := c.weight.Val.Reshape(c.OutC, rows)
	dwm := tensor.FromSlice(dw, c.OutC, rows)
	dx := tensor.New(n, c.InC, h, w)
	dcols := tensor.New(rows, spatial)
	for s := 0; s < n; s++ {
		gs := tensor.FromSlice(grad.Data[s*c.OutC*spatial:(s+1)*c.OutC*spatial], c.OutC, spatial)
		tensor.Gemm(false, true, 1, gs, cols[s], 1, dwm)
		tensor.Gemm(true, false, 1, wm, gs, 0, dcols)
		tensor.Col2Im(dcols, c.InC, h, w, c.K, c.K, c.Stride, c.Pad,
			tensor.FromSlice(dx.Data[s*c.InC*h*w:(s+1)*c.InC*h*w], c.InC, h, w))
		if c.UseBias {
			for o := 0; o < c.OutC; o++ {
				acc := 0.0
				for _, v := range gs.Data[o*spatial : (o+1)*spatial] {
					acc += v
				}
				db[o] += acc
			}
		}
	}
	return dx
}

// TestConvImplicitMatchesRef: forward output, dW, db and dX of every
// Conv2D path — the in-place stride-1 unfold above all — equal the frozen
// explicit unfold bit for bit, over plane sizes from 1×1 to 32×32,
// kernels 1, 3 and 5, padding 0–2, strides 1 and 2, 1–6 input channels,
// odd and even output channels, batches 1, 3 and 10, with and without
// bias, on one worker and on three (the larger shapes' backward products
// clear the threshold at which they fan out). Rectified inputs put signed
// zeros into the products, and the gradients start from nonzero values, so
// both "0 + v" and the order in which a sample's terms join an
// accumulating sum show up.
func TestConvImplicitMatchesRef(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	sizes := [][2]int{{1, 1}, {2, 3}, {4, 4}, {5, 7}, {8, 8}, {16, 16}, {32, 32}}
	batches, outCs := []int{1, 3, 10}, []int{2, 5, 8}
	rng := rand.New(rand.NewSource(50))
	cases := 0
	for _, hw := range sizes {
		for _, k := range []int{1, 3, 5} {
			for pad := 0; pad <= 2; pad++ {
				for _, stride := range []int{1, 2} {
					for _, inC := range []int{1, 3, 6} {
						h, w := hw[0], hw[1]
						if h+2*pad < k || w+2*pad < k {
							continue
						}
						cases++
						n, outC, bias := batches[cases%3], outCs[(cases/3)%3], cases%2 == 0
						if testing.Short() && h*w*n > 256 {
							n = 1
						}
						name := fmt.Sprintf("%dx%d/k%d/p%d/s%d/in%d/out%d/n%d/bias=%v", h, w, k, pad, stride, inC, outC, n, bias)
						checkConvAgainstRef(t, rng, name, n, inC, outC, h, w, k, stride, pad, bias)
					}
				}
			}
		}
	}
}

func checkConvAgainstRef(t *testing.T, rng *rand.Rand, name string, n, inC, outC, h, w, k, stride, pad int, bias bool) {
	t.Helper()
	conv := NewConv2D(rng, "c", inC, outC, k, stride, pad, bias)
	x := tensor.Randn(rng, 1, n, inC, h, w)
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
		}
	}
	if bias {
		for i := range conv.bias.Val.Data {
			conv.bias.Val.Data[i] = rng.NormFloat64()
		}
	}
	want, cols := refConvForward(conv, x)
	grad := tensor.Randn(rng, 1, want.Shape...)
	dw0 := tensor.Randn(rng, 1, outC*inC*k*k).Data
	db0 := tensor.Randn(rng, 1, outC).Data
	wantDw, wantDb := append([]float64(nil), dw0...), append([]float64(nil), db0...)
	wantDx := refConvBackward(conv, cols, grad, h, w, wantDw, wantDb)

	for _, par := range []int{1, 3} {
		tensor.SetParallelism(par)
		got := conv.Forward(x, true)
		copy(conv.weight.Grad.Data, dw0)
		if bias {
			copy(conv.bias.Grad.Data, db0)
		}
		gotDx := conv.Backward(grad)
		checks := map[string][2][]float64{
			"output": {got.Data, want.Data}, "dX": {gotDx.Data, wantDx.Data}, "dW": {conv.weight.Grad.Data, wantDw},
		}
		if bias {
			checks["db"] = [2][]float64{conv.bias.Grad.Data, wantDb}
		}
		for what, pair := range checks {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("%s par=%d: %s has %d elements, want %d", name, par, what, len(pair[0]), len(pair[1]))
			}
			for i := range pair[1] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("%s par=%d: %s[%d] = %v, explicit unfold %v", name, par, what, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}
