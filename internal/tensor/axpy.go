package tensor

// Row kernels behind the blocked GEMM. A kernel owns its inner loops: one
// call covers a whole k-panel for a pair of C rows (axpyRows, the NN and
// TN cases) or every B row of a column span against a pair of A rows
// (dotRows, the NT case), so narrow operands — the 6-to-51-channel
// convolutions of width-pruned submodels — spend their time inside the
// kernel rather than entering it.
//
// Each kernel has an amd64/AVX implementation (axpy_amd64.s) and the
// portable Go twin below, which is the bitwise reference: the AVX code
// uses separate VMULPD/VADDPD (no FMA contraction) in exactly the
// association the Go code uses, so the fast path never changes a result
// — only how fast it is produced. Build with -tags purego to run the Go
// twins on amd64.

// axpyRows2 accumulates one k-panel into the C row pair c0, c1. u0 and u1
// hold the panel's scaled A coefficients for the two rows (alpha*A[i,p]),
// b starts at the panel's first B row and the span's first column, and
// ldb is B's row stride. Per element, over len(u0) k steps taken in
// pairs with a single trailing step when the count is odd:
//
//	c0[j] += u0[p]*b[p][j] + u0[p+1]*b[p+1][j]
//	c1[j] += u1[p]*b[p][j] + u1[p+1]*b[p+1][j]
func axpyRows2(u0, u1, b []float64, ldb int, c0, c1 []float64) {
	if j := axpyRows2Accel(u0, u1, b, ldb, c0, c1); j < len(c0) {
		axpyRows2Generic(u0, u1, b[j:], ldb, c0[j:], c1[j:])
	}
}

// axpyRows1 is axpyRows2 for a single C row. It keeps the identical
// 2-wise k grouping, so a row's accumulation order does not depend on
// whether it was processed as half of a pair or alone.
func axpyRows1(u0, b []float64, ldb int, c0 []float64) {
	if j := axpyRows1Accel(u0, b, ldb, c0); j < len(c0) {
		axpyRows1Generic(u0, b[j:], ldb, c0[j:])
	}
}

func axpyRows2Generic(u0, u1, b []float64, ldb int, c0, c1 []float64) {
	nj := len(c0)
	c1 = c1[:nj]
	p := 0
	for ; p+2 <= len(u0); p += 2 {
		s0, s1, t0, t1 := u0[p], u0[p+1], u1[p], u1[p+1]
		b0, b1 := b[p*ldb:][:nj], b[(p+1)*ldb:][:nj]
		for j := range c0 {
			bv0, bv1 := b0[j], b1[j]
			c0[j] += s0*bv0 + s1*bv1
			c1[j] += t0*bv0 + t1*bv1
		}
	}
	if p < len(u0) {
		s, t := u0[p], u1[p]
		bp := b[p*ldb:][:nj]
		for j := range c0 {
			bv := bp[j]
			c0[j] += s * bv
			c1[j] += t * bv
		}
	}
}

func axpyRows1Generic(u0, b []float64, ldb int, c0 []float64) {
	nj := len(c0)
	p := 0
	for ; p+2 <= len(u0); p += 2 {
		s0, s1 := u0[p], u0[p+1]
		b0, b1 := b[p*ldb:][:nj], b[(p+1)*ldb:][:nj]
		for j := range c0 {
			c0[j] += s0*b0[j] + s1*b1[j]
		}
	}
	if p < len(u0) {
		s := u0[p]
		bp := b[p*ldb:][:nj]
		for j := range c0 {
			c0[j] += s * bp[j]
		}
	}
}

// dotRows2 computes c0[j] += alpha*dot(a0, b_j) and c1[j] += alpha*dot(a1,
// b_j) for the len(c0) consecutive rows b_j of b, each len(a0) long.
func dotRows2(a0, a1, b []float64, alpha float64, c0, c1 []float64) {
	if dotRows2Accel(a0, a1, b, alpha, c0, c1) {
		return
	}
	k := len(a0)
	for j := range c0 {
		bj := b[j*k : j*k+k]
		c0[j] += alpha * dot(a0, bj)
		c1[j] += alpha * dot(a1, bj)
	}
}

// dotRows1 is dotRows2 for a single A row.
func dotRows1(a0, b []float64, alpha float64, c0 []float64) {
	if dotRows1Accel(a0, b, alpha, c0) {
		return
	}
	k := len(a0)
	for j := range c0 {
		c0[j] += alpha * dot(a0, b[j*k:j*k+k])
	}
}

// dot computes the inner product of a and b with a fixed reduction tree:
// 16 partial sums striped by index mod 16, folded lanewise to
// t[l] = (s[l] + s[l+4]) + (s[l+8] + s[l+12]), then ((t0+t1)+(t2+t3)),
// with a sequential tail for the remainder. The tree is a function of
// len(a) alone, so serial, pooled, and AVX execution all agree bitwise.
func dot(a, b []float64) float64 {
	n16 := len(a) &^ 15
	var s [16]float64
	for p := 0; p < n16; p += 16 {
		aa := a[p : p+16]
		bb := b[p : p+16]
		for l := 0; l < 16; l++ {
			s[l] += aa[l] * bb[l]
		}
	}
	var t [4]float64
	for l := 0; l < 4; l++ {
		t[l] = (s[l] + s[l+4]) + (s[l+8] + s[l+12])
	}
	sum := (t[0] + t[1]) + (t[2] + t[3])
	for p := n16; p < len(a); p++ {
		sum += a[p] * b[p]
	}
	return sum
}
