package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestBNGroupMatchesTwins runs every BNGroup pass — the AVX kernels on
// amd64 — against its Go twin, bit for bit: planes of 0 to 37 elements,
// 1, 2, 3 and 6 samples, groups of 1 to 4 channels at either end and
// inside a 7-channel batch, bare and with the ReLU and ReLU6 rectifiers.
// Planted among the inputs are −0, ±Inf, NaNs with distinct payloads (a
// signalling one too), subnormals and the values at and one ulp either
// side of 0 and of the clamp, which lanes whose constants make γ·x̂ + β = x
// put onto the pass test. The batch sits inside a buffer of sentinels,
// and its other channels' planes hold sentinels too: a pass that read one
// into a result, or wrote outside the group's planes, would not match.
//
// Any NaN matches any NaN: where both operands of an add or a multiply
// are NaN, x86 returns the payload of the one placed first, and the Go
// source of a twin does not pin that order (its race build flips some).
// TestBNSumsKeepFirstNaN pins the kernels' own order.
func TestBNGroupMatchesTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	nan := func(bits uint64) float64 { return math.Float64frombits(bits) }
	tiny := math.SmallestNonzeroFloat64
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		nan(0x7ff8000000000001), nan(0xfff8000000000002), nan(0x7ff0000000000003), nan(0x7ffc000000000004),
		tiny, -tiny, 2 * tiny, 1e-310, -1e-310, math.Nextafter(0x1p-1022, 0),
		6, math.Nextafter(6, 0), math.Nextafter(6, 7), -6, 1, -1}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	const guard, sentinelBits = 9, 0x7ff80000000bad00
	sentinel := nan(sentinelBits)

	const c = 7
	for _, spatial := range seq(0, 37) {
		for _, n := range []int{1, 2, 3, 6} {
			for _, grp := range [][2]int{{0, 4}, {3, 4}, {4, 3}, {0, 1}, {6, 1}, {2, 2}, {5, 2}, {1, 3}} {
				for _, rect := range []Rectifier{0, NewRectifier(0), NewRectifier(6)} {
					// Every other case plants no NaN or Inf, so that a
					// sentinel (a NaN) read into a sum shows.
					clean := rng.Intn(2) == 0
					g := BNGroup{N: n, C: c, Spatial: spatial, C0: grp[0], Len: grp[1], Rect: rect}
					name := fmt.Sprintf("%d elements n%d channels %d+%d rect %#x clean %v", spatial, n, grp[0], grp[1], uint64(rect), clean)
					for k := 0; k < 4; k++ {
						switch rng.Intn(3) {
						case 0: // γ·x̂ + β = x
							g.Mean[k], g.Inv[k], g.Gamma[k], g.Beta[k] = 0, 1, 1, 0
						case 1: // β alone on the pass test
							g.Mean[k], g.Inv[k], g.Gamma[k] = rng.NormFloat64(), 1+rng.Float64(), 0
							g.Beta[k] = specials[rng.Intn(len(specials))]
						default:
							g.Mean[k], g.Inv[k] = rng.NormFloat64(), 0.5+rng.Float64()
							g.Gamma[k], g.Beta[k] = 1+3*rng.Float64(), 3*rng.NormFloat64()
						}
					}
					batch := func() (buf, v []float64) {
						buf = make([]float64, n*c*spatial+2*guard)
						for i := range buf {
							buf[i] = sentinel
						}
						v = buf[guard : guard+n*c*spatial]
						for k := 0; k < g.Len; k++ {
							for s := 0; s < n; s++ {
								p := g.plane(v, s, k, 0)
								for i := range p {
									p[i] = 4 * rng.NormFloat64()
									if sp := specials[rng.Intn(len(specials))]; rng.Intn(3) == 0 && (!clean || finite(sp)) {
										p[i] = sp
									}
								}
							}
						}
						return buf, v
					}
					_, x := batch()
					_, gy := batch()
					same := func(what string, got, want []float64) {
						t.Helper()
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
								!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
								t.Fatalf("%s %s: element %d = %v (%#x), twin %v (%#x)", name, what, i,
									got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
							}
						}
					}

					sum, sq := g.Sums(x)
					wsum, wsq := g.sumsGo(x)
					same("Σx", sum[:], wsum[:])
					same("Σx²", sq[:], wsq[:])
					dsum, dxsum := g.GradSums(gy, x)
					wd, we := g.gradSumsGo(gy, x)
					same("Σdy", dsum[:], wd[:])
					same("Σdy·x̂", dxsum[:], we[:])

					for _, eval := range []bool{false, true} {
						got, y := batch()
						want := append([]float64(nil), got...)
						if eval {
							g.NormaliseEval(y, x)
						} else {
							g.Normalise(y, x)
						}
						g.normaliseGo(want[guard:len(want)-guard], x, 0, eval)
						same(fmt.Sprintf("normalise (eval %v)", eval), got, want)
					}
					got, dx := batch()
					want := append([]float64(nil), got...)
					g.InputGrad(dx, gy, x, wd, we)
					g.inputGradGo(want[guard:len(want)-guard], gy, x, 0, &wd, &we)
					same("input grad", got, want)
				}
			}
		}
	}
}

func seq(lo, hi int) []int {
	var s []int
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

// BenchmarkBNGroupPasses times each BNGroup pass on a 4-channel group of
// 32×32 planes fused with ReLU6: over 10 samples, whose planes (320 KiB
// per batch) stay in a 2 MiB L2 from one pass to the next, and over 200,
// whose 6.4 MiB do not. The bytes it reports are those a pass reads and
// writes: 8 per element of each batch it reads or writes.
func BenchmarkBNGroupPasses(b *testing.B) {
	for _, n := range []int{10, 200} {
		rng := rand.New(rand.NewSource(1))
		const c, spatial = 4, 1024
		x := Randn(rng, 1, n*c*spatial).Data
		gy := Randn(rng, 1, n*c*spatial).Data
		y := make([]float64, n*c*spatial)
		g := BNGroup{N: n, C: c, Spatial: spatial, Len: 4, Rect: NewRectifier(6)}
		for k := range g.Mean {
			g.Mean[k], g.Inv[k], g.Gamma[k], g.Beta[k] = 0.1, 1.2, 1.5, 0.3
		}
		dsum, dxsum := g.GradSums(gy, x)
		elems := int64(n * c * spatial)
		for _, p := range []struct {
			name    string
			batches int64
			run     func()
		}{
			{"sums", 1, func() { g.Sums(x) }},
			{"normalise", 2, func() { g.Normalise(y, x) }},
			{"gradsums", 2, func() { g.GradSums(gy, x) }},
			{"inputgrad", 3, func() { g.InputGrad(y, gy, x, dsum, dxsum) }},
		} {
			b.Run(fmt.Sprintf("n%d/%s", n, p.name), func(b *testing.B) {
				b.SetBytes(8 * p.batches * elems)
				for i := 0; i < b.N; i++ {
					p.run()
				}
			})
		}
	}
}
