//go:build !amd64 || purego

package tensor

// Without the assembly kernels every depthwise plane runs its Go twin.

func dw3PlaneAccel(y, x, k []float64, init float64, h, w int, flip bool, masks *[2][3][4]uint64) bool {
	return false
}

func dw3FilterAccel(acc, g, x []float64, p *DepthwisePlane) bool { return false }

func dw3ForwardS2Accel(y, x, k []float64, init float64, h, w int) int { return 0 }

func dw3InputS2Accel(dx, g, k []float64, h, w int) int { return 0 }
