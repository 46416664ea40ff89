//go:build amd64 && !purego

package tensor

// useAVX reports whether the OS and CPU support 256-bit AVX float math.
// The kernels use only AVX1 instructions (VMULPD/VADDPD/VBROADCASTSD/
// VHADDPD) so plain AVX support is sufficient.
var useAVX = detectAVX()

func detectAVX() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false
	}
	_, _, ecx, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XGETBV(0) bits 1|2: XMM and YMM state enabled by the OS.
	eax, _ := xgetbv0()
	return eax&0x6 == 0x6
}

// Implemented in axpy_amd64.s. The kernels only read and write through
// their pointers, so arguments (gemmBlock's coefficient buffer) may live
// on the caller's stack.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func axpyRows2AVX(u0, u1 *float64, kp int, b *float64, ldb int, c0, c1 *float64, n int)

//go:noescape
func axpyRows1AVX(u0 *float64, kp int, b *float64, ldb int, c0 *float64, n int)

//go:noescape
func dotRows2AVX(a0, a1 *float64, k int, b *float64, nb int, alpha float64, c0, c1 *float64)

//go:noescape
func dotRows1AVX(a0 *float64, k int, b *float64, nb int, alpha float64, c0 *float64)

// axpyRows2Accel runs the AVX kernel over the largest multiple-of-4
// column prefix and returns how many columns it handled.
func axpyRows2Accel(u0, u1, b []float64, ldb int, c0, c1 []float64) int {
	n4 := len(c0) &^ 3
	if !useAVX || n4 == 0 || len(u0) == 0 {
		return 0
	}
	_, _, _ = u1[len(u0)-1], b[(len(u0)-1)*ldb+n4-1], c1[n4-1]
	axpyRows2AVX(&u0[0], &u1[0], len(u0), &b[0], ldb, &c0[0], &c1[0], n4)
	return n4
}

// axpyRows1Accel is the one-row form of axpyRows2Accel.
func axpyRows1Accel(u0, b []float64, ldb int, c0 []float64) int {
	n4 := len(c0) &^ 3
	if !useAVX || n4 == 0 || len(u0) == 0 {
		return 0
	}
	_ = b[(len(u0)-1)*ldb+n4-1]
	axpyRows1AVX(&u0[0], len(u0), &b[0], ldb, &c0[0], n4)
	return n4
}

// dotRows2Accel runs the AVX kernel over every B row; it reports whether
// it did.
func dotRows2Accel(a0, a1, b []float64, alpha float64, c0, c1 []float64) bool {
	k, nb := len(a0), len(c0)
	if !useAVX || k == 0 || nb == 0 {
		return false
	}
	_, _, _ = a1[k-1], b[nb*k-1], c1[nb-1]
	dotRows2AVX(&a0[0], &a1[0], k, &b[0], nb, alpha, &c0[0], &c1[0])
	return true
}

// dotRows1Accel is the one-row form of dotRows2Accel.
func dotRows1Accel(a0, b []float64, alpha float64, c0 []float64) bool {
	k, nb := len(a0), len(c0)
	if !useAVX || k == 0 || nb == 0 {
		return false
	}
	_ = b[nb*k-1]
	dotRows1AVX(&a0[0], k, &b[0], nb, alpha, &c0[0])
	return true
}
