//go:build amd64 && !purego

package tensor

import "unsafe"

// Implemented in depthwise_amd64.s.

//go:noescape
func dw3PlaneAVX(y, x, k *float64, init float64, h, w, flip int, masks *[2][3][4]uint64, plain int)

//go:noescape
func dw3ForwardS2AVX(y, x, k *float64, init float64, w, ow, rows, groups int)

//go:noescape
func dw3InputS2AVX(dx, gr, k *float64, w, ow, pairs, groups int)

//go:noescape
func dw3FilterAVX(acc *[12]float64, gr, x *float64, h, w, oh, ow, stride, colHi int, masks *[3][4]uint64, plain int)

// dw3PlaneAccel runs the AVX stride-1 plane kernel, forward or (flip) for
// the input gradient; it reports whether it did.
func dw3PlaneAccel(y, x, k []float64, init float64, h, w int, flip bool, masks *[2][3][4]uint64) bool {
	if !useAVX || h == 0 || w == 0 {
		return false
	}
	_, _, _ = y[h*w-1], x[h*w-1], k[8]
	// The edge vectors read one element before a row and up to four
	// after it.
	dw3PlaneAVX(&y[0], &x[0], &k[0], init, h, w, b2i(flip), masks, b2i(pageSafe(x, 4)))
	return true
}

// dw3FilterAccel runs the AVX filter-gradient kernel; it reports whether
// it did.
func dw3FilterAccel(acc, g, x []float64, p *DepthwisePlane) bool {
	if !useAVX || p.OH == 0 || p.OW == 0 {
		return false
	}
	_, _, _ = acc[8], g[p.OH*p.OW-1], x[p.H*p.W-1]
	var rows [12]float64
	// The edge columns read one element before a row and up to two after
	// it.
	dw3FilterAVX(&rows, &g[0], &x[0], p.H, p.W, p.OH, p.OW, p.Stride, p.colHi, &p.colMask, b2i(pageSafe(x, 2)))
	copy(acc[0:3], rows[0:3])
	copy(acc[3:6], rows[4:7])
	copy(acc[6:9], rows[8:11])
	return true
}

// dw3ForwardS2Accel runs the AVX stride-2 forward over the output rows
// [1, h/2), which take all three input rows, and their outputs from 1 on
// whose ten input columns lie inside the row, four at a time. It returns
// how many groups of four it wrote per row.
func dw3ForwardS2Accel(y, x, k []float64, init float64, h, w int) int {
	rows, ow := h/2-1, (w+1)/2
	if !useAVX || w < 11 || rows < 1 {
		return 0
	}
	groups := (w-11)/8 + 1
	_, _, _ = y[rows*ow+4*groups], x[(2*rows+1)*w+8*groups+2], k[8]
	dw3ForwardS2AVX(&y[ow+1], &x[w+1], &k[0], init, w, ow, rows, groups)
	return groups
}

// dw3InputS2Accel runs the AVX stride-2 input gradient over the input
// rows [0, 2·(oh−1)), whose output rows a and a+1 both exist, and their
// columns [0, 8·groups), whose kernel column 0 taps land inside the
// output row. It returns groups.
func dw3InputS2Accel(dx, g, k []float64, h, w int) int {
	oh, ow := (h+1)/2, (w+1)/2
	pairs, groups := oh-1, (ow-1)/4
	if !useAVX || pairs < 1 || groups < 1 {
		return 0
	}
	_, _, _ = dx[(2*pairs-1)*w+8*groups-1], g[pairs*ow+4*groups], k[8]
	dw3InputS2AVX(&dx[0], &g[0], &k[0], w, ow, pairs, groups)
	return groups
}

// pageSafe reports whether the element before s and the after elements
// past its end lie on the pages of its first and last elements, so that
// a kernel may load them (and ignore what it read): memory is mapped and
// protected a 4 KiB page at a time.
func pageSafe(s []float64, after int) bool {
	const page = 4096
	lo := uintptr(unsafe.Pointer(&s[0])) % page
	hi := (uintptr(unsafe.Pointer(&s[len(s)-1])) + 8) % page
	return lo >= 8 && hi != 0 && hi+uintptr(after)*8 <= page
}
