//go:build !amd64 || purego

package tensor

// Without the assembly kernels every batch-norm pass runs its Go twin.

func bnSumsAccel(g *BNGroup, x []float64, sum, sq *[4]float64) bool { return false }

func bnGradSumsAccel(g *BNGroup, gy, x []float64, dsum, dxsum *[4]float64) bool { return false }

func bnNormAccel(g *BNGroup, y, x []float64, eval bool) int { return 0 }

func bnInputGradAccel(g *BNGroup, dx, gy, x []float64, dsum, dxsum *[4]float64) int { return 0 }
