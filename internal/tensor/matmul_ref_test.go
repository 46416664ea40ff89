package tensor

// A frozen copy of the GEMM block kernel as it stood before the row
// kernels: the same tiling and loop nest, with the per-vector micro-kernels
// (axpy2x2, axpy2x1, the 16-stripe dot) as plain Go loops. It is the
// parent-equivalence reference of TestGemmAccelMatchesGeneric — every
// kernel that replaces it must reproduce its bits — and must not be
// "improved".

func refAxpy2x2(u0, u1, v0, v1 float64, b0, b1, c0, c1 []float64) {
	for j := range c0 {
		bv0, bv1 := b0[j], b1[j]
		c0[j] += u0*bv0 + u1*bv1
		c1[j] += v0*bv0 + v1*bv1
	}
}

func refAxpy2x1(u0, u1 float64, b0, b1, c0 []float64) {
	for j := range c0 {
		c0[j] += u0*b0[j] + u1*b1[j]
	}
}

func refDot(a, b []float64) float64 {
	n16 := len(a) &^ 15
	var s [16]float64
	for p := 0; p+16 <= n16; p += 16 {
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

func refGemmBlock(transA, transB bool, alpha float64, a, b, c *Tensor, lo, hi, jLo, jHi, k int) {
	n := c.Shape[1]
	ad, bd, cd := a.Data, b.Data, c.Data
	switch {
	case !transA && !transB:
		for j0 := jLo; j0 < jHi; j0 += nTile {
			j1 := j0 + nTile
			if j1 > jHi {
				j1 = jHi
			}
			for p0 := 0; p0 < k; p0 += kTile {
				p1 := p0 + kTile
				if p1 > k {
					p1 = k
				}
				nj := j1 - j0
				i := lo
				for ; i+2 <= hi; i += 2 {
					c0 := cd[i*n+j0:][:nj]
					c1 := cd[(i+1)*n+j0:][:nj]
					a0 := ad[i*k : i*k+k]
					a1 := ad[(i+1)*k : (i+1)*k+k]
					p := p0
					for ; p+2 <= p1; p += 2 {
						refAxpy2x2(alpha*a0[p], alpha*a0[p+1], alpha*a1[p], alpha*a1[p+1],
							bd[p*n+j0:][:nj], bd[(p+1)*n+j0:][:nj], c0, c1)
					}
					for ; p < p1; p++ {
						u := alpha * a0[p]
						v := alpha * a1[p]
						bp := bd[p*n+j0:][:nj]
						for j := range c0 {
							bv := bp[j]
							c0[j] += u * bv
							c1[j] += v * bv
						}
					}
				}
				for ; i < hi; i++ {
					ci := cd[i*n+j0:][:nj]
					ai := ad[i*k : i*k+k]
					p := p0
					for ; p+2 <= p1; p += 2 {
						refAxpy2x1(alpha*ai[p], alpha*ai[p+1],
							bd[p*n+j0:][:nj], bd[(p+1)*n+j0:][:nj], ci)
					}
					for ; p < p1; p++ {
						av := alpha * ai[p]
						bp := bd[p*n+j0:][:nj]
						for j := range ci {
							ci[j] += av * bp[j]
						}
					}
				}
			}
		}
	case !transA && transB:
		for i := lo; i < hi; i++ {
			ai := ad[i*k : i*k+k]
			ci := cd[i*n : i*n+n]
			for j := jLo; j < jHi; j++ {
				ci[j] += alpha * refDot(ai, bd[j*k:j*k+k])
			}
		}
	case transA && !transB:
		m := c.Shape[0]
		nj := jHi - jLo
		p := 0
		for ; p+2 <= k; p += 2 {
			ap0 := ad[p*m : p*m+m]
			ap1 := ad[(p+1)*m : (p+1)*m+m]
			bp0 := bd[p*n+jLo:][:nj]
			bp1 := bd[(p+1)*n+jLo:][:nj]
			for i := lo; i < hi; i++ {
				refAxpy2x1(alpha*ap0[i], alpha*ap1[i], bp0, bp1, cd[i*n+jLo:][:nj])
			}
		}
		for ; p < k; p++ {
			ap := ad[p*m : p*m+m]
			bp := bd[p*n+jLo:][:nj]
			for i := lo; i < hi; i++ {
				av := alpha * ap[i]
				ci := cd[i*n+jLo:][:nj]
				for j := range ci {
					ci[j] += av * bp[j]
				}
			}
		}
	}
}
