package tensor

// DepthwisePlane computes one (sample, channel) plane of a depthwise
// convolution — a K×K filter at the given stride and zero padding over an
// H×W input plane, giving an OH×OW output plane — one call per plane.
//
// Every result keeps the arithmetic of a tap-by-tap loop: an output is
// its init (a bias or +0) plus its taps in (ki, kj) order, an input
// gradient +0 plus its taps in (ki, kj) order, and a filter-gradient tap
// the sum from +0 of its products in (oi, oj) order; each product is one
// multiply and each sum one add, never fused. A tap that falls on the
// padding is skipped, never added as a product of zero: the operands may
// hold −0, ±Inf and NaN, with which a padded zero changes bits.
//
// The 3×3, padding-1 planes MobileNetV2 trains on take fast paths: on
// amd64 with AVX, stride-1 forwards and input gradients put four adjacent
// columns of a row in the lanes of one vector, and filter gradients put
// the three taps of a kernel row in the lanes of one vector, so that each
// of the nine chains keeps a lane of its own; the vectors at the edges of
// a row blend the taps that fall off the plane out. Stride-2 forwards and
// input gradients run whole-plane Go kernels, which hand the outputs
// (input columns) that take all their taps to AVX kernels, four (eight)
// at a time. Everything else — and every path under the purego tag —
// runs the tap loops below, which are the twins the AVX kernels are
// tested against.
type DepthwisePlane struct {
	K, Stride, Pad int
	H, W, OH, OW   int

	// The lane masks of the AVX kernels (all ones: the lane takes the
	// tap). rowMask[f][v][kj] is, for the first (v = 0) and the last
	// (v = 1) 4-column vector of an output row, the lanes kernel column
	// kj reaches, forward (f = 0) and for the input gradient (f = 1).
	// colMask[e][kj] is, for filter-gradient output column 0 (e = 0) and
	// columns colHi and colHi+1 (e = 1, 2), whether kernel column kj
	// reaches the plane; lane 3 is never live. Columns in [1, colHi)
	// read all four lanes inside the input row.
	rowMask [2][2][3][4]uint64
	colMask [3][4]uint64
	colHi   int
}

// NewDepthwisePlane plans the planes of a depthwise convolution with a
// k×k filter over h×w inputs.
func NewDepthwisePlane(k, stride, pad, h, w int) DepthwisePlane {
	p := DepthwisePlane{K: k, Stride: stride, Pad: pad, H: h, W: w,
		OH: ConvOutSize(h, k, stride, pad), OW: ConvOutSize(w, k, stride, pad)}
	if !p.conv3() {
		return p
	}
	const live = ^uint64(0)
	nv := (w + 3) / 4
	for f, dir := range [2]int{1, -1} {
		for v, c0 := range [2]int{0, 4 * (nv - 1)} {
			for kj := 0; kj < 3; kj++ {
				for l := 0; l < 4; l++ {
					c := c0 + l
					if src := c + (kj-1)*dir; c < w && src >= 0 && src < w {
						p.rowMask[f][v][kj][l] = live
					}
				}
			}
		}
	}
	p.colHi = max(1, min(p.OW, (w-3)/stride+1))
	for e, oj := range [3]int{0, p.colHi, p.colHi + 1} {
		for kj := 0; kj < 3; kj++ {
			if j := oj*stride - 1 + kj; oj < p.OW && j >= 0 && j < w {
				p.colMask[e][kj] = live
			}
		}
	}
	return p
}

// conv3 reports whether the plane is a 3×3 filter with padding 1 at
// stride 1 or 2, the shape the fast paths serve.
func (p *DepthwisePlane) conv3() bool {
	return p.K == 3 && p.Pad == 1 && (p.Stride == 1 || p.Stride == 2)
}

// Forward writes the output plane y from the input plane x and the
// filter k, each output starting from init.
func (p *DepthwisePlane) Forward(y, x, k []float64, init float64) {
	y, x, k = y[:p.OH*p.OW], x[:p.H*p.W], k[:p.K*p.K]
	switch {
	case p.conv3() && p.Stride == 1 && dw3PlaneAccel(y, x, k, init, p.H, p.W, false, &p.rowMask[0]):
	case p.conv3() && p.Stride == 2:
		dw3ForwardS2(y, x, k, init, p.H, p.W)
	default:
		p.forwardTaps(y, x, k, init)
	}
}

// InputGrad writes the input-gradient plane dx from the output-gradient
// plane g and the filter k.
func (p *DepthwisePlane) InputGrad(dx, g, k []float64) {
	dx, g, k = dx[:p.H*p.W], g[:p.OH*p.OW], k[:p.K*p.K]
	switch {
	case p.conv3() && p.Stride == 1 && dw3PlaneAccel(dx, g, k, 0, p.H, p.W, true, &p.rowMask[1]):
	case p.conv3() && p.Stride == 2:
		dw3InputS2(dx, g, k, p.H, p.W)
	default:
		p.inputTaps(dx, g, k)
	}
}

// FilterGrad writes into acc, one element per filter tap, the sums of
// the products of the output-gradient plane g with the input plane x.
func (p *DepthwisePlane) FilterGrad(acc, g, x []float64) {
	acc, g, x = acc[:p.K*p.K], g[:p.OH*p.OW], x[:p.H*p.W]
	if p.conv3() && dw3FilterAccel(acc, g, x, p) {
		return
	}
	p.filterTaps(acc, g, x)
}

// forwardTaps is Forward as a tap loop: y[oi, oj] = init + Σ k[ki, kj] ·
// x[oi·S−P+ki, oj·S−P+kj] over the taps inside x, in (ki, kj) order.
func (p *DepthwisePlane) forwardTaps(y, x, k []float64, init float64) {
	K, S, P, h, w := p.K, p.Stride, p.Pad, p.H, p.W
	for oi := 0; oi < p.OH; oi++ {
		i0 := oi*S - P
		for oj := 0; oj < p.OW; oj++ {
			j0 := oj*S - P
			acc := init
			for ki := max(0, -i0); ki < min(K, h-i0); ki++ {
				for kj := max(0, -j0); kj < min(K, w-j0); kj++ {
					acc += k[ki*K+kj] * x[(i0+ki)*w+j0+kj]
				}
			}
			y[oi*p.OW+oj] = acc
		}
	}
}

// inputTaps is InputGrad as a tap loop: dx[ii, jj] = +0 + Σ g[oi, oj] ·
// k[ki, kj] over the taps with oi·S = ii+P−ki and oj·S = jj+P−kj inside
// g, in (ki, kj) order.
func (p *DepthwisePlane) inputTaps(dx, g, k []float64) {
	K, S, P, w := p.K, p.Stride, p.Pad, p.W
	var zero float64
	for ii := 0; ii < p.H; ii++ {
		for jj := 0; jj < w; jj++ {
			acc := zero
			for ki := 0; ki < K && ii+P-ki >= 0; ki++ {
				oi := (ii + P - ki) / S
				if (ii+P-ki)%S != 0 || oi >= p.OH {
					continue
				}
				for kj := 0; kj < K && jj+P-kj >= 0; kj++ {
					oj := (jj + P - kj) / S
					if (jj+P-kj)%S != 0 || oj >= p.OW {
						continue
					}
					acc += g[oi*p.OW+oj] * k[ki*K+kj]
				}
			}
			dx[ii*w+jj] = acc
		}
	}
}

// filterTaps is FilterGrad as a tap loop: acc[ki, kj] = +0 + Σ g[oi, oj]
// · x[oi·S−P+ki, oj·S−P+kj] over the outputs whose tap lands inside x, in
// (oi, oj) order.
func (p *DepthwisePlane) filterTaps(acc, g, x []float64) {
	K, S, P, h, w := p.K, p.Stride, p.Pad, p.H, p.W
	clear(acc)
	for oi := 0; oi < p.OH; oi++ {
		i0 := oi*S - P
		for oj := 0; oj < p.OW; oj++ {
			j0 := oj*S - P
			gv := g[oi*p.OW+oj]
			for ki := max(0, -i0); ki < min(K, h-i0); ki++ {
				for kj := max(0, -j0); kj < min(K, w-j0); kj++ {
					acc[ki*K+kj] += gv * x[(i0+ki)*w+j0+kj]
				}
			}
		}
	}
}

// dw3ForwardS2 is forwardTaps for a 3×3 filter at stride 2 with padding
// 1. Output row oi reads input rows 2oi−1 (kernel row 0, from oi = 1 on),
// 2oi and 2oi+1 (kernel row 2, while inside the plane); column oj the
// same way, so the outputs in [1, w/2) of a row with all three input rows
// take all nine taps.
func dw3ForwardS2(y, x, k []float64, init float64, h, w int) {
	oh, ow := (h+1)/2, (w+1)/2
	k0, k1, k2, k3, k4, k5, k6, k7, k8 := k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]
	// The rows in [1, h/2) have all three input rows; the AVX kernel may
	// have written their outputs [1, 1+4·groups).
	groups := dw3ForwardS2Accel(y, x, k, init, h, w)
	for oi := 0; oi < oh; oi++ {
		yr := y[oi*ow : (oi+1)*ow]
		r1 := x[2*oi*w : (2*oi+1)*w]
		top, bot := oi > 0, 2*oi+1 < h
		var r0, r2 []float64
		if top {
			r0 = x[(2*oi-1)*w : 2*oi*w]
		}
		if bot {
			r2 = x[(2*oi+1)*w : (2*oi+2)*w]
		}
		full := 1
		if top && bot {
			full = dw3RowS2(yr, init, r0, r1, r2, k, 1+4*groups)
		}
		for oj := 0; oj < ow; oj++ {
			if oj == 1 {
				oj = full
				if oj == ow {
					break
				}
			}
			j := 2 * oj
			left, right := oj > 0, j+1 < w
			acc := init
			if top {
				acc = tap3(acc, r0, j, k0, k1, k2, left, right)
			}
			acc = tap3(acc, r1, j, k3, k4, k5, left, right)
			if bot {
				acc = tap3(acc, r2, j, k6, k7, k8, left, right)
			}
			yr[oj] = acc
		}
	}
}

// dw3RowS2 writes the outputs [from, w/2) of a stride-2 row with all
// three input rows r0, r1 and r2, which take all nine taps, and returns
// the end of that range (at least from).
func dw3RowS2(y []float64, init float64, r0, r1, r2, k []float64, from int) int {
	w := len(r1)
	r0, r2, k = r0[:w], r2[:w], k[:9]
	k0, k1, k2, k3, k4, k5, k6, k7, k8 := k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]
	hi := max(from, w/2)
	for oj, j := from, 2*from-1; oj < hi; oj, j = oj+1, j+2 {
		a, b, c := r0[j:j+3:j+3], r1[j:j+3:j+3], r2[j:j+3:j+3]
		y[oj] = init + k0*a[0] + k1*a[1] + k2*a[2] + k3*b[0] + k4*b[1] + k5*b[2] + k6*c[0] + k7*c[1] + k8*c[2]
	}
	return hi
}

// tap3 adds to acc the taps k0, k1 and k2 at x[j−1], x[j] and x[j+1],
// the first only when left holds and the last only when right does.
func tap3(acc float64, x []float64, j int, k0, k1, k2 float64, left, right bool) float64 {
	if left {
		acc += k0 * x[j-1]
	}
	acc += k1 * x[j]
	if right {
		acc += k2 * x[j+1]
	}
	return acc
}

// dw3InputS2 is inputTaps for a 3×3 filter at stride 2 with padding 1.
// The input row 2a takes kernel row 1 from output row a; the row 2a+1
// kernel row 0 from output row a+1 (while inside the plane) and kernel
// row 2 from output row a. Columns pair up with kernel columns the same
// way.
func dw3InputS2(dx, g, k []float64, h, w int) {
	oh, ow := (h+1)/2, (w+1)/2
	// The AVX kernel may have written the columns [0, 8·groups) of the
	// rows [0, 2·(oh−1)).
	groups := dw3InputS2Accel(dx, g, k, h, w)
	var zero float64
	for ii := 0; ii < h; ii++ {
		a := ii / 2
		dr := dx[ii*w : (ii+1)*w]
		gb := g[a*ow : (a+1)*ow]
		from := 0
		if a+1 < oh {
			from = 4 * groups
		}
		if ii%2 == 0 {
			k3, k4, k5 := k[3], k[4], k[5]
			for b := from; 2*b < w; b++ {
				dr[2*b] = zero + gb[b]*k4
				if 2*b+1 < w {
					acc := zero
					if b+1 < ow {
						acc += gb[b+1] * k3
					}
					dr[2*b+1] = acc + gb[b]*k5
				}
			}
			continue
		}
		var ga []float64
		if a+1 < oh {
			ga = g[(a+1)*ow : (a+2)*ow]
		}
		k0, k1, k2, k6, k7, k8 := k[0], k[1], k[2], k[6], k[7], k[8]
		for b := from; 2*b < w; b++ {
			acc := zero
			if ga != nil {
				acc += ga[b] * k1
			}
			dr[2*b] = acc + gb[b]*k7
			if 2*b+1 == w {
				break
			}
			acc = zero
			in := b+1 < ow
			if ga != nil {
				if in {
					acc += ga[b+1] * k0
				}
				acc += ga[b] * k2
			}
			if in {
				acc += gb[b+1] * k6
			}
			dr[2*b+1] = acc + gb[b]*k8
		}
	}
}
