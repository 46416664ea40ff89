//go:build amd64 && !purego

package tensor

import (
	"math"
	"testing"
)

// TestBNSumsKeepFirstNaN pins the sum kernels' operand order: the sum is
// the first operand of every add, so once it is NaN it keeps the payload
// of the first NaN it met, as the twins' reductions do when compiled with
// optimisation. Each lane of a 4-channel group meets its two NaNs in a
// different place: inside a vector block, from a block into a plane's
// tail, inside a tail and from a tail into the next sample's block.
func TestBNSumsKeepFirstNaN(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX")
	}
	const n, c, spatial = 2, 4, 6 // one 4-element block and a tail of 2 per plane
	first := [4]uint64{0x7ff8000000000011, 0xfff8000000000012, 0x7ff8000000000013, 0x7ff8000000000014}
	at := [4][2][2]int{ // lane: {sample, element} of the first and the second NaN
		{{0, 1}, {0, 2}}, {{0, 3}, {0, 4}}, {{0, 4}, {0, 5}}, {{0, 5}, {1, 0}},
	}
	x, gy := make([]float64, n*c*spatial), make([]float64, n*c*spatial)
	for i := range x {
		x[i], gy[i] = float64(i%5)-2, float64(i%3)-1
	}
	second := math.Float64frombits(0x7ff8000000000abc)
	for k, a := range at {
		for _, v := range [][]float64{x, gy} {
			v[(a[0][0]*c+k)*spatial+a[0][1]] = math.Float64frombits(first[k])
			v[(a[1][0]*c+k)*spatial+a[1][1]] = second
		}
	}
	g := BNGroup{N: n, C: c, Spatial: spatial, Len: 4}
	for k := range g.Inv {
		g.Inv[k], g.Gamma[k] = 1, 1
	}
	sum, sq := g.Sums(x)
	dsum, _ := g.GradSums(gy, x)
	for k := range first {
		for what, v := range map[string]float64{"Σx": sum[k], "Σx²": sq[k], "Σdy": dsum[k]} {
			if math.Float64bits(v) != first[k] {
				t.Errorf("lane %d %s = %#x, want the first NaN %#x", k, what, math.Float64bits(v), first[k])
			}
		}
	}
}
