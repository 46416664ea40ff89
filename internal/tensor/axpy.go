package tensor

// Row kernels behind the blocked GEMM and the implicit-unfold convolution.
// A kernel owns its inner loops: one call covers a whole k-panel for a
// pair of C rows (axpyRows2, the one NN and TN kernel) or every B row of
// a panel against a pair of A rows (dotPanel2, the one NT kernel, dense
// GEMM rows and convolution panels alike), so narrow operands — the
// 6-to-51-channel convolutions of width-pruned submodels — spend their
// time inside the kernel rather than entering it.
//
// Each kernel has an amd64/AVX implementation (axpy_amd64.s) and the
// portable Go twin below, which is the bitwise reference: the AVX code
// uses separate VMULPD/VADDPD (no FMA contraction) in exactly the
// association the Go code uses, so the fast path never changes a result
// — only how fast it is produced. Build with -tags purego to run the Go
// twins on amd64.

// panel is the B operand of a row-kernel call, read in place, and the
// layout of the C rows it is multiplied into: row p of segment r is the n
// elements from b[taps[p] + r*ldb], and segment r of a C row is the n
// elements from c[r*ldc]. A stride-1 convolution reads its zero-padded
// input plane with one segment per output row and a tap at each
// (channel, ki, kj) window corner (convTaps); taps are non-negative and
// ascending. An NN or TN GEMM panel is dense: no taps, one segment, and
// row p at b[p*ldb]. Gemm's NT panel is one segment of n = k with taps
// p·k.
type panel struct {
	b        []float64
	taps     []int
	ldb, ldc int
	segs, n  int
}

// cmode says what a row kernel does with the C elements it computes.
type cmode int

const (
	// addTo accumulates into C, pair by pair.
	addTo cmode = iota
	// writeTo starts from +0 instead of C's contents: the bits a cleared
	// C gives, without the pass that clears it.
	writeTo
	// foldInto forms the sum from +0 and then adds it to C once, as a
	// col2im fold adds a column block's finished element.
	foldInto
)

// axpyRows2 multiplies one k-panel into the C row pair c0, c1. u0 and u1
// hold the panel's scaled A coefficients for the two rows (alpha*A[i,p]).
// Per element, over len(u0) k steps taken in pairs with a single trailing
// step when the count is odd, the sum
//
//	s0[j] = u0[p]*B[p][j] + u0[p+1]*B[p+1][j] + …
//	s1[j] = u1[p]*B[p][j] + u1[p+1]*B[p+1][j] + …
//
// joins C as mode says. Both rows' C elements are read before either is
// written, so a lone row goes as a pair with itself, in place
// (axpyRows2(u, u, pn, c, c, mode)): both halves compute the same bits
// and store them to the same place.
func axpyRows2(u0, u1 []float64, pn *panel, c0, c1 []float64, mode cmode) {
	j := axpyRows2Accel(u0, u1, pn, c0, c1, mode)
	if j == pn.n {
		return
	}
	for r := 0; r < pn.segs; r++ {
		lo, hi := r*pn.ldc+j, r*pn.ldc+pn.n
		axpyRows2Generic(u0, u1, pn.b[r*pn.ldb+j:], pn.taps, pn.ldb, c0[lo:hi], c1[lo:hi], mode)
	}
}

// tap returns where B row p of a segment starts: taps[p], or p·ldb in a
// dense panel.
func tap(taps []int, ldb, p int) int {
	if taps == nil {
		return p * ldb
	}
	return taps[p]
}

// axpyRows2Generic is the Go twin for one segment: B row p is b[tap(p):].
// Each column's sums start from C (addTo) or +0, and foldInto adds C to
// the finished sum; both C elements are read before either is written.
func axpyRows2Generic(u0, u1, b []float64, taps []int, ldb int, c0, c1 []float64, mode cmode) {
	c1 = c1[:len(c0)]
	for j := range c0 {
		x0, x1 := c0[j], c1[j]
		var z0, z1 float64
		if mode == addTo {
			z0, z1 = x0, x1
		}
		s0, s1 := axpyCol(u0, b, taps, ldb, j, z0), axpyCol(u1, b, taps, ldb, j, z1)
		if mode == foldInto {
			s0, s1 = x0+s0, x1+s1
		}
		c0[j], c1[j] = s0, s1
	}
}

// axpyCol is one column's sum of the row kernel, from s.
func axpyCol(u, b []float64, taps []int, ldb, j int, s float64) float64 {
	p := 0
	for ; p+2 <= len(u); p += 2 {
		s += u[p]*b[tap(taps, ldb, p)+j] + u[p+1]*b[tap(taps, ldb, p+1)+j]
	}
	if p < len(u) {
		s += u[p] * b[tap(taps, ldb, p)+j]
	}
	return s
}

// dotPanel2 computes c0[j] += alpha*dot(a0, B_j) and c1[j] += alpha*dot(a1,
// B_j) for the len(c0) rows B_j of the panel pn, each pn.segs·pn.n long
// and read in place (element q of B_j is b[taps[j] + (q/n)*ldb + q%n]).
// With first set, c0 and c1 start from +0 instead of their contents. It is
// the one NT kernel: a convolution's filter gradient against the unfold it
// never materialises, and Gemm's dense rows as a one-segment panel with
// taps[j] = j·k. Both rows' C elements are read before either is
// written, so a lone A row goes as a pair with itself, in place: a row's
// tree depends on its length alone, so that gives it the bits it has as
// half of a pair.
func dotPanel2(a0, a1 []float64, pn *panel, alpha float64, c0, c1 []float64, first bool) {
	if dotPanel2Accel(a0, a1, pn, alpha, c0, c1, first) {
		return
	}
	c1 = c1[:len(c0)]
	for j := range c0 {
		bj := pn.b[pn.taps[j]:]
		x0, x1 := c0[j], c1[j]
		if first {
			x0, x1 = 0, 0
		}
		c0[j], c1[j] = x0+alpha*dot(a0, bj, pn.n, pn.ldb), x1+alpha*dot(a1, bj, pn.n, pn.ldb)
	}
}

// dot computes the inner product of a with a vector of b laid out in
// segments of n elements ldb apart (element q is b[(q/n)*ldb + q%n]; a
// contiguous vector is one segment), with a fixed reduction tree: 16
// partial sums striped by index mod 16, folded lanewise to t[l] = (s[l] +
// s[l+4]) + (s[l+8] + s[l+12]), then ((t0+t1)+(t2+t3)), with a sequential
// tail for the remainder. The tree is a function of len(a) alone, so
// serial, pooled, and AVX execution all agree bitwise, and so do a
// column block and the plane it was unfolded from.
func dot(a, b []float64, n, ldb int) float64 {
	n16 := len(a) &^ 15
	var s [16]float64
	q, row, col := 0, 0, 0
	for ; q < n16; q++ {
		s[q&15] += a[q] * b[row+col]
		if col++; col == n {
			row, col = row+ldb, 0
		}
	}
	var t [4]float64
	for l := 0; l < 4; l++ {
		t[l] = (s[l] + s[l+4]) + (s[l+8] + s[l+12])
	}
	sum := (t[0] + t[1]) + (t[2] + t[3])
	for ; q < len(a); q++ {
		sum += a[q] * b[row+col]
		if col++; col == n {
			row, col = row+ldb, 0
		}
	}
	return sum
}
