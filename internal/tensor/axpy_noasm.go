//go:build !amd64 || purego

package tensor

// Without the assembly kernels every row kernel runs its Go twin.

func axpyRows2Accel(u0, u1 []float64, pn *panel, c0, c1 []float64, mode cmode) int { return 0 }

func dotPanel2Accel(a0, a1 []float64, pn *panel, alpha float64, c0, c1 []float64, first bool) bool {
	return false
}
