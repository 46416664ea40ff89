//go:build amd64 && !purego

package tensor

// Implemented in batchnorm_amd64.s. x is the batch; off holds, in
// elements, the offsets of the group's four lanes' planes in sample 0, and
// stride the elements from one sample to the next.

//go:noescape
func bnSumsAVX(acc *[2][4]float64, x *float64, off *[4]int, n, stride, spatial int)

//go:noescape
func bnGradSumsAVX(acc *[2][4]float64, x, gy *float64, off *[4]int, n, stride, spatial int, lanes *bnLanes, hi float64, rect int)

//go:noescape
func bnNormAVX(y, x *float64, off *[4]int, nc, n, stride, nv int, lanes *bnLanes, hi float64, rect int)

//go:noescape
func bnInputGradAVX(dx, x, gy *float64, off *[4]int, nc, n, stride, nv int, lanes *bnLanes, hi float64, rect int)

// bnSumsAccel runs the AVX sum pass; it reports whether it did.
func bnSumsAccel(g *BNGroup, x []float64, sum, sq *[4]float64) bool {
	if !useAVX || len(x) == 0 {
		return false
	}
	var l bnLanes
	var off [4]int
	g.lanes(&l, &off)
	var acc [2][4]float64
	bnSumsAVX(&acc, &x[0], &off, g.N, g.C*g.Spatial, g.Spatial)
	copy(sum[:g.Len], acc[0][:])
	copy(sq[:g.Len], acc[1][:])
	return true
}

// bnGradSumsAccel runs the AVX gradient sum pass; it reports whether it
// did.
func bnGradSumsAccel(g *BNGroup, gy, x []float64, dsum, dxsum *[4]float64) bool {
	if !useAVX || len(x) == 0 {
		return false
	}
	var l bnLanes
	var off [4]int
	g.lanes(&l, &off)
	hi, rect := g.hi()
	var acc [2][4]float64
	bnGradSumsAVX(&acc, &x[0], &gy[0], &off, g.N, g.C*g.Spatial, g.Spatial, &l, hi, rect)
	copy(dsum[:g.Len], acc[0][:])
	copy(dxsum[:g.Len], acc[1][:])
	return true
}

// bnNormAccel runs the AVX normalise pass over the whole vectors of every
// plane and returns where the planes' tails start: 0 when it ran nothing.
func bnNormAccel(g *BNGroup, y, x []float64, eval bool) int {
	nv := g.Spatial / 4
	if !useAVX || nv == 0 || g.N == 0 {
		return 0
	}
	var l bnLanes
	var off [4]int
	g.lanes(&l, &off)
	if eval { // ((x − μ)·γ)·inv
		l[bnInv], l[bnGamma] = l[bnGamma], l[bnInv]
	}
	hi, rect := g.hi()
	bnNormAVX(&y[0], &x[0], &off, g.Len, g.N, g.C*g.Spatial, nv, &l, hi, rect)
	return 4 * nv
}

// bnInputGradAccel runs the AVX input-gradient pass over the whole
// vectors of every plane and returns where the planes' tails start: 0
// when it ran nothing.
func bnInputGradAccel(g *BNGroup, dx, gy, x []float64, dsum, dxsum *[4]float64) int {
	nv := g.Spatial / 4
	if !useAVX || nv == 0 || g.N == 0 {
		return 0
	}
	var l bnLanes
	var off [4]int
	g.lanes(&l, &off)
	m := g.m()
	for k := 0; k < 4; k++ {
		j := min(k, g.Len-1)
		l[bnK1][k], l[bnM][k] = g.Gamma[j]*g.Inv[j]/m, m
		l[bnD][k], l[bnE][k] = dsum[j], dxsum[j]
	}
	hi, rect := g.hi()
	bnInputGradAVX(&dx[0], &x[0], &gy[0], &off, g.Len, g.N, g.C*g.Spatial, nv, &l, hi, rect)
	return 4 * nv
}
