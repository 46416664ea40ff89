package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestDepthwisePlaneMatchesTaps runs the 3×3 fast paths of DepthwisePlane
// — the AVX kernels and the stride-2 Go kernels — against the tap loops,
// bit for bit, on planes from 1×1 to 32×32 with −0, ±Inf and NaN planted
// in the filter, the input and the gradient. Each plane sits inside a
// larger buffer, so that a write past its edges shows, and the planes
// read are placed away from page boundaries, starting at one and ending
// at one, which switches the AVX kernels' edge loads between plain and
// masked.
func TestDepthwisePlaneMatchesTaps(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-300}
	plant := func(v []float64) {
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	// place returns a plane of n random elements with at least guard
	// elements of buffer on either side: away from a page boundary (at
	// 0), starting at one (1) or ending at one (2).
	const guard, page = 40, 512
	place := func(n, at int) (buf, plane []float64) {
		buf = Randn(rng, 1, n+2*guard+2*page).Data
		off := int(uintptr(unsafe.Pointer(&buf[0])) % (8 * page) / 8) // buf[0]'s element within its page
		i := guard
		switch at {
		case 0:
			for (off+i)%page == 0 || (off+i+n)%page == 0 || (off+i+n)%page > page-8 {
				i++
			}
		case 1:
			for (off+i)%page != 0 {
				i++
			}
		case 2:
			for (off+i+n)%page != 0 {
				i++
			}
		}
		plane = buf[i : i+n]
		plant(plane)
		return buf, plane
	}
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 16, 20, 32}
	for _, at := range []int{0, 1, 2} {
		for _, stride := range []int{1, 2} {
			for _, h := range sizes {
				for _, w := range sizes {
					p := NewDepthwisePlane(3, stride, 1, h, w)
					name := fmt.Sprintf("at %d s%d %dx%d", at, stride, h, w)
					k := Randn(rng, 1, 9).Data
					plant(k)
					init := []float64{0, math.Copysign(0, -1), 0.5}[rng.Intn(3)]
					_, x := place(h*w, at)
					_, g := place(p.OH*p.OW, at)

					check := func(what string, run func(out []float64), ref func(out []float64)) {
						t.Helper()
						got := Randn(rng, 1, len(x)+len(g)+2*guard).Data
						want := append([]float64(nil), got...)
						n := guard + max(len(x), len(g))
						run(got[guard:n])
						ref(want[guard:n])
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
								!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
								t.Fatalf("%s %s: element %d (plane offset %d) = %v, taps %v", name, what, i, i-guard, got[i], want[i])
							}
						}
					}
					check("forward", func(y []float64) { p.Forward(y, x, k, init) },
						func(y []float64) { p.forwardTaps(y[:p.OH*p.OW], x, k, init) })
					check("input grad", func(dx []float64) { p.InputGrad(dx, g, k) },
						func(dx []float64) { p.inputTaps(dx[:h*w], g, k) })
					check("filter grad", func(acc []float64) { p.FilterGrad(acc, g, x) },
						func(acc []float64) { p.filterTaps(acc[:9], g, x) })
				}
			}
		}
	}
}
