package tensor

import "math"

// Rectifier is a rectifier's upper bound as float bits: those of the
// clamp, or of +Inf when there is none; zero means no rectifier. Its pass
// test is one unsigned compare, bits(v)−1 < hi: on non-negative floats
// the bit order is the value order, +0 wraps to the top, and every
// sign-bit pattern and every NaN lands at or above hi — so exactly the
// strictly positive values up to the bound pass, and no branch depends on
// the data. In float compares the same test is v > 0 (ordered) && v ≤ hi.
type Rectifier uint64

// NewRectifier returns min(max(0, v), clamp), or max(0, v) when clamp is
// not positive.
func NewRectifier(clamp float64) Rectifier {
	if clamp > 0 {
		return Rectifier(math.Float64bits(clamp))
	}
	return Rectifier(infBits)
}

// Mask is all ones where the rectifier is the identity at v, zero
// elsewhere.
func (hi Rectifier) Mask(v float64) uint64 {
	var m uint64
	if math.Float64bits(v)-1 < uint64(hi) {
		m = ^uint64(0)
	}
	return m
}

// Apply rectifies v: v where it passes, the clamp above it, +0 everywhere
// else. On the strictly positive non-NaN floats — bits(v)−1 < bits(+Inf) —
// the result is the smaller of v and the bound, compared as bits.
func (hi Rectifier) Apply(v float64) float64 {
	u := math.Float64bits(v)
	out := min(u, uint64(hi))
	if u-1 >= infBits {
		out = 0
	}
	return math.Float64frombits(out)
}

const infBits = 0x7ff0000000000000

// BNGroup runs batch norm's passes over a group of up to four channels of
// an [N, C, H, W] batch, each channel's planes swept across all samples in
// one call. Lane k of the constants holds channel C0+k's.
//
// Every pass recomputes x̂ = (x − μ)·inv with the same two operations, so
// that nothing as large as the batch is kept between them; each result
// keeps the arithmetic of the loops below, which are the twins the AVX
// kernels are tested against: one multiply and one add per operation,
// never fused, in the order written. A channel's sums start from +0 and
// add its elements in sample-major element order (the kernels with the
// sum as the first operand of each add). The kernels use the float form
// of Rect's pass test.
//
// On amd64 with AVX, the sum passes put the group's four channels in the
// lanes of one vector (transposing 4×4 blocks of their planes, a lane
// gathering each element of a plane's last 4-element tail on its own), so
// that four channels' add chains overlap; a group of fewer channels
// repeats its last one in the spare lanes. The element-wise passes put
// four adjacent elements of a plane in a vector and leave a plane's last
// 1–3 elements to the Go twins. No kernel loads from outside a plane
// (only the output prefetches of the element-wise kernels, which never
// fault, reach past one).
type BNGroup struct {
	N, C, Spatial int       // the batch: N samples of C planes of Spatial elements
	C0, Len       int       // the channels C0 … C0+Len−1, 1 ≤ Len ≤ 4
	Rect          Rectifier // the fused rectifier; zero when there is none

	Mean, Inv, Gamma, Beta [4]float64
}

// The rows of the constant table the kernels read, lane k channel C0+k's.
const (
	bnMean = iota
	bnInv
	bnGamma
	bnBeta
	bnK1 // γ·inv/m, the input gradient's scale
	bnM  // m = N·Spatial
	bnD  // Σdy
	bnE  // Σdy·x̂
	bnRows
)

type bnLanes [bnRows][4]float64

// lanes fills in the group's constant table and its planes' offsets in
// sample 0, lanes from Len on repeating lane Len−1.
func (g *BNGroup) lanes(l *bnLanes, off *[4]int) {
	for k := 0; k < 4; k++ {
		j := min(k, g.Len-1)
		l[bnMean][k], l[bnInv][k], l[bnGamma][k], l[bnBeta][k] = g.Mean[j], g.Inv[j], g.Gamma[j], g.Beta[j]
		off[k] = (g.C0 + j) * g.Spatial
	}
}

// plane returns channel C0+k's plane of sample s in v, from element lo.
func (g *BNGroup) plane(v []float64, s, k, lo int) []float64 {
	base := (s*g.C + g.C0 + k) * g.Spatial
	return v[base+lo : base+g.Spatial]
}

// check panics unless every given batch holds N·C·Spatial elements and
// the group is one of up to four channels inside the batch.
func (g *BNGroup) check(vs ...[]float64) {
	if g.Len < 1 || g.Len > 4 || g.C0 < 0 || g.C0+g.Len > g.C || g.N < 0 || g.Spatial < 0 {
		panic("tensor: BNGroup outside its batch")
	}
	for _, v := range vs {
		if len(v) != g.N*g.C*g.Spatial {
			panic("tensor: BNGroup batch size mismatch")
		}
	}
}

// hi returns the rectifier as the kernels take it: its bound as a float,
// and 1 when there is one.
func (g *BNGroup) hi() (float64, int) {
	if g.Rect == 0 {
		return 0, 0
	}
	return math.Float64frombits(uint64(g.Rect)), 1
}

// keep is all ones when there is no rectifier to mask dy with.
func (g *BNGroup) keep() uint64 {
	if g.Rect == 0 {
		return ^uint64(0)
	}
	return 0
}

// m returns the number of elements each channel's statistics cover.
func (g *BNGroup) m() float64 { return float64(g.N * g.Spatial) }

// Sums returns Σx and Σx² of each channel of the group.
func (g *BNGroup) Sums(x []float64) (sum, sq [4]float64) {
	g.check(x)
	if bnSumsAccel(g, x, &sum, &sq) {
		return
	}
	return g.sumsGo(x)
}

func (g *BNGroup) sumsGo(x []float64) (sum, sq [4]float64) {
	for k := 0; k < g.Len; k++ {
		var s1, s2 float64
		for s := 0; s < g.N; s++ {
			for _, v := range g.plane(x, s, k, 0) {
				s1 += v
				s2 += v * v
			}
		}
		sum[k], sq[k] = s1, s2
	}
	return
}

// Normalise writes the training output rect(γ·x̂ + β) of each channel of
// the group into y.
func (g *BNGroup) Normalise(y, x []float64) {
	g.check(y, x)
	g.normaliseGo(y, x, bnNormAccel(g, y, x, false), false)
}

// NormaliseEval writes the evaluation output rect((γ·(x − μ))·inv + β) of
// each channel of the group into y.
func (g *BNGroup) NormaliseEval(y, x []float64) {
	g.check(y, x)
	g.normaliseGo(y, x, bnNormAccel(g, y, x, true), true)
}

// normaliseGo is Normalise (eval: NormaliseEval) over the elements of
// every plane from lo on. γ·x̂ is ((x − μ)·inv)·γ and the evaluation
// output's γ·(x − μ) is (x − μ)·γ: a multiply's result does not depend on
// its operands' order.
func (g *BNGroup) normaliseGo(y, x []float64, lo int, eval bool) {
	if lo == g.Spatial {
		return
	}
	r := g.Rect
	for k := 0; k < g.Len; k++ {
		mean, a, b, bt := g.Mean[k], g.Inv[k], g.Gamma[k], g.Beta[k]
		if eval {
			a, b = b, a
		}
		for s := 0; s < g.N; s++ {
			xs, ys := g.plane(x, s, k, lo), g.plane(y, s, k, lo)
			ys = ys[:len(xs)]
			if r == 0 {
				for i, v := range xs {
					ys[i] = (v-mean)*a*b + bt
				}
			} else {
				for i, v := range xs {
					ys[i] = r.Apply((v-mean)*a*b + bt)
				}
			}
		}
	}
}

// GradSums returns Σdy and Σdy·x̂ of each channel of the group, where dy
// is the output gradient gy, zeroed — as +0, like a ReLU layer's
// Backward — wherever the fused rectifier did not pass γ·x̂ + β.
func (g *BNGroup) GradSums(gy, x []float64) (dsum, dxsum [4]float64) {
	g.check(gy, x)
	if bnGradSumsAccel(g, gy, x, &dsum, &dxsum) {
		return
	}
	return g.gradSumsGo(gy, x)
}

func (g *BNGroup) gradSumsGo(gy, x []float64) (dsum, dxsum [4]float64) {
	keep := g.keep()
	for k := 0; k < g.Len; k++ {
		mean, inv, gm, bt := g.Mean[k], g.Inv[k], g.Gamma[k], g.Beta[k]
		var d, e float64
		for s := 0; s < g.N; s++ {
			xs, gs := g.plane(x, s, k, 0), g.plane(gy, s, k, 0)
			gs = gs[:len(xs)]
			for i, v := range xs {
				h := (v - mean) * inv
				dy := math.Float64frombits(math.Float64bits(gs[i]) & (keep | g.Rect.Mask(gm*h+bt)))
				d += dy
				e += dy * h
			}
		}
		dsum[k], dxsum[k] = d, e
	}
	return
}

// InputGrad writes the input gradient γ·inv/m·(m·dy − Σdy − x̂·Σdy·x̂) of
// each channel of the group into dx, given GradSums' sums.
func (g *BNGroup) InputGrad(dx, gy, x []float64, dsum, dxsum [4]float64) {
	g.check(dx, gy, x)
	g.inputGradGo(dx, gy, x, bnInputGradAccel(g, dx, gy, x, &dsum, &dxsum), &dsum, &dxsum)
}

// inputGradGo is InputGrad over the elements of every plane from lo on.
func (g *BNGroup) inputGradGo(dx, gy, x []float64, lo int, dsum, dxsum *[4]float64) {
	if lo == g.Spatial {
		return
	}
	m, keep := g.m(), g.keep()
	for k := 0; k < g.Len; k++ {
		mean, inv, gm, bt := g.Mean[k], g.Inv[k], g.Gamma[k], g.Beta[k]
		d, e := dsum[k], dxsum[k]
		k1 := gm * inv / m
		for s := 0; s < g.N; s++ {
			xs, gs, ds := g.plane(x, s, k, lo), g.plane(gy, s, k, lo), g.plane(dx, s, k, lo)
			gs, ds = gs[:len(xs)], ds[:len(xs)]
			for i, v := range xs {
				h := (v - mean) * inv
				dy := math.Float64frombits(math.Float64bits(gs[i]) & (keep | g.Rect.Mask(gm*h+bt)))
				ds[i] = k1 * (m*dy - d - h*e)
			}
		}
	}
}
