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
// their pointers, so arguments (gemmPanels' coefficient buffer, the tap
// tables) may live on the caller's stack.
// mode is a cmode; first is 0 or 1.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

//go:noescape
func axpyRows2AVX(u0, u1 *float64, kp int, b *float64, taps *int, ldb int, c0, c1 *float64, ldc, n, segs, mode int)

//go:noescape
func dotPanel2AVX(a0, a1 *float64, k int, b *float64, taps *int, nb, n, skip int, alpha float64, c0, c1 *float64, first int)

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// firstTap is the taps pointer the kernels take: nil for a dense panel.
func firstTap(pn *panel) *int {
	if pn.taps == nil {
		return nil
	}
	return &pn.taps[0]
}

// axpyRows2Accel runs the AVX kernel over the largest multiple-of-4
// column prefix of every segment and returns how many columns of each it
// handled.
func axpyRows2Accel(u0, u1 []float64, pn *panel, c0, c1 []float64, mode cmode) int {
	n4, kp := pn.n&^3, len(u0)
	if !useAVX || n4 == 0 || kp == 0 {
		return 0
	}
	last := (pn.segs-1)*pn.ldc + n4 - 1
	_, _, _ = u1[kp-1], c0[last], c1[last]
	_ = pn.b[tap(pn.taps, pn.ldb, kp-1)+(pn.segs-1)*pn.ldb+n4-1]
	axpyRows2AVX(&u0[0], &u1[0], kp, &pn.b[0], firstTap(pn), pn.ldb, &c0[0], &c1[0], pn.ldc, n4, pn.segs, int(mode))
	return n4
}

// panelVectors reports whether the AVX dot can load B_j four elements at
// a time: no group of four straddles two segments.
func panelVectors(pn *panel) bool { return pn.n%4 == 0 || pn.segs == 1 }

// dotPanel2Accel runs the AVX kernel over every B row of the panel; it
// reports whether it did.
func dotPanel2Accel(a0, a1 []float64, pn *panel, alpha float64, c0, c1 []float64, first bool) bool {
	k, nb := len(a0), len(c0)
	if !useAVX || k == 0 || nb == 0 || !panelVectors(pn) || k != pn.segs*pn.n {
		return false
	}
	_, _, _ = a1[k-1], c1[nb-1], pn.taps[nb-1]
	_ = pn.b[pn.taps[nb-1]+(pn.segs-1)*pn.ldb+pn.n-1]
	dotPanel2AVX(&a0[0], &a1[0], k, &pn.b[0], &pn.taps[0], nb, pn.n, pn.ldb-pn.n, alpha, &c0[0], &c1[0], b2i(first))
	return true
}
