package tensor

// ConvOutSize returns the spatial output size of a convolution or pooling
// window: floor((in + 2*pad - kernel)/stride) + 1.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2ColBatch unfolds a batch x of shape [N,C,H,W] into a matrix of shape
// [C*kh*kw, N*oh*ow] so that the convolution over the whole batch becomes
// a single GEMM. Sample s occupies columns [s*oh*ow, (s+1)*oh*ow). Out-of-
// bounds taps (padding) contribute zeros. The result is written into cols,
// which must have shape [C*kh*kw, N*oh*ow]. Stride-1 rows are bulk-copied.
func Im2ColBatch(x *Tensor, kh, kw, stride, pad int, cols *Tensor) {
	im2col(x.Data, x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], kh, kw, stride, pad, cols)
}

func im2col(xd []float64, n, c, h, w, kh, kw, stride, pad int, cols *Tensor) {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	total := n * oh * ow
	if cols.Shape[0] != c*kh*kw || cols.Shape[1] != total {
		panic("tensor: Im2Col cols shape mismatch")
	}
	cd := cols.Data
	row := 0
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				out := cd[row*total : (row+1)*total]
				for s := 0; s < n; s++ {
					base := (s*c + ch) * h * w
					seg := out[s*oh*ow : (s+1)*oh*ow]
					idx := 0
					for oi := 0; oi < oh; oi++ {
						ii := oi*stride - pad + ki
						if ii < 0 || ii >= h {
							for j := 0; j < ow; j++ {
								seg[idx+j] = 0
							}
							idx += ow
							continue
						}
						rowBase := base + ii*w
						if stride == 1 {
							jj := kj - pad // input column under oj=0
							lo, hi := clipWindow(jj, ow, w)
							for j := 0; j < lo; j++ {
								seg[idx+j] = 0
							}
							if hi > lo {
								copy(seg[idx+lo:idx+hi], xd[rowBase+jj+lo:rowBase+jj+hi])
							}
							for j := hi; j < ow; j++ {
								seg[idx+j] = 0
							}
							idx += ow
							continue
						}
						jj := -pad + kj
						for oj := 0; oj < ow; oj++ {
							if jj >= 0 && jj < w {
								seg[idx] = xd[rowBase+jj]
							} else {
								seg[idx] = 0
							}
							idx++
							jj += stride
						}
					}
				}
				row++
			}
		}
	}
}

// Col2ImBatch folds cols of shape [C*kh*kw, N*oh*ow] back into a batch
// gradient of shape [N,C,H,W], accumulating overlapping taps. dst is
// zeroed first.
func Col2ImBatch(cols *Tensor, c, h, w, kh, kw, stride, pad int, dst *Tensor) {
	if dst.Shape[1] != c || dst.Shape[2] != h || dst.Shape[3] != w {
		panic("tensor: Col2ImBatch dst shape mismatch")
	}
	col2im(cols, dst.Shape[0], c, h, w, kh, kw, stride, pad, dst.Data)
}

func col2im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int, dd []float64) {
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	total := n * oh * ow
	if cols.Shape[0] != c*kh*kw || cols.Shape[1] != total || len(dd) != n*c*h*w {
		panic("tensor: Col2Im shape mismatch")
	}
	clear(dd)
	cd := cols.Data
	row := 0
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				in := cd[row*total : (row+1)*total]
				for s := 0; s < n; s++ {
					base := (s*c + ch) * h * w
					seg := in[s*oh*ow : (s+1)*oh*ow]
					idx := 0
					for oi := 0; oi < oh; oi++ {
						ii := oi*stride - pad + ki
						if ii < 0 || ii >= h {
							idx += ow
							continue
						}
						rowBase := base + ii*w
						if stride == 1 {
							jj := kj - pad
							lo, hi := clipWindow(jj, ow, w)
							if hi > lo {
								drow := dd[rowBase+jj+lo : rowBase+jj+hi]
								srow := seg[idx+lo : idx+hi]
								for j, v := range srow {
									drow[j] += v
								}
							}
							idx += ow
							continue
						}
						jj := -pad + kj
						for oj := 0; oj < ow; oj++ {
							if jj >= 0 && jj < w {
								dd[rowBase+jj] += seg[idx]
							}
							idx++
							jj += stride
						}
					}
				}
				row++
			}
		}
	}
}

// clipWindow returns the sub-range [lo,hi) of a length-ow stride-1 window
// whose input column off+j stays inside [0,w).
func clipWindow(off, ow, w int) (lo, hi int) {
	lo, hi = 0, ow
	if off < 0 {
		lo = -off
	}
	if off+ow > w {
		hi = w - off
	}
	if lo > ow {
		lo = ow
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Im2Col unfolds a single image x of shape [C,H,W] into a matrix of shape
// [C*kh*kw, oh*ow]. It is the N==1 special case of Im2ColBatch.
func Im2Col(x *Tensor, kh, kw, stride, pad int, cols *Tensor) {
	im2col(x.Data, 1, x.Shape[0], x.Shape[1], x.Shape[2], kh, kw, stride, pad, cols)
}

// Col2Im folds cols of shape [C*kh*kw, oh*ow] back into an image gradient
// of shape [C,H,W], accumulating overlapping taps. dst is zeroed first. It
// is the N==1 special case of Col2ImBatch.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int, dst *Tensor) {
	if dst.Shape[0] != c || dst.Shape[1] != h || dst.Shape[2] != w {
		panic("tensor: Col2Im dst shape mismatch")
	}
	col2im(cols, 1, c, h, w, kh, kw, stride, pad, dst.Data)
}

// A stride-1 convolution reads its unfold in place. The unfold U of a
// sample, [c·k·k, oh·ow], has row p = (ch, ki, kj) and column (oi, oj)
// equal to the sample's input at (ch, oi−pad+ki, oj−pad+kj), +0 outside
// it. On the zero-padded plane [c, h+2·pad, w+2·pad] (PadPlane) that row
// is oh windows of ow elements, one per output row, ph·pw apart per
// channel: the row kernels read them through a panel whose taps are the
// window corners (convTaps), so U is never written out. Each function
// below produces the bits of the column-matrix GEMM it replaces —
// the operands only come from other addresses.

// PadPlane copies the sample x [c, h, w] into dst [c, h+2·pad, w+2·pad]
// inside a border of +0.
func PadPlane(dst, x []float64, c, h, w, pad int) {
	ph, pw := h+2*pad, w+2*pad
	for ch := 0; ch < c; ch++ {
		d := dst[ch*ph*pw : (ch+1)*ph*pw]
		clear(d[:pad*pw])
		clear(d[(pad+h)*pw:])
		for i := 0; i < h; i++ {
			row := d[(pad+i)*pw : (pad+i+1)*pw]
			clear(row[:pad])
			copy(row[pad:pad+w], x[(ch*h+i)*w:(ch*h+i+1)*w])
			clear(row[pad+w:])
		}
	}
}

// convTaps fills taps with the plane offsets of unfold rows p0, p0+1, …
// of a k×k convolution over planes of ph×pw: the corners of their first
// windows.
func convTaps(taps []int, p0, k, ph, pw int) []int {
	ch, t := p0/(k*k), p0%(k*k)
	ki, kj := t/k, t%k
	for i := range taps {
		taps[i] = ch*ph*pw + ki*pw + kj
		if kj++; kj == k {
			if kj, ki = 0, ki+1; ki == k {
				ki, ch = 0, ch+1
			}
		}
	}
	return taps
}

// convParallel reports whether the backward products of a convolution
// clear the serialThreshold at which Gemm fans out; their output-row or
// channel pairs then go to ForEach at Parallelism. Results do not depend
// on it.
func convParallel(outC, c, ph, pw, k int) bool {
	return 2*outC*c*k*k*(ph-k+1)*(pw-k+1) >= serialThreshold && Parallelism() > 1
}

// ConvPlane writes one sample's stride-1 k×k convolution out [outC,
// oh·ow] = W·U, W being [outC, c·k·k] and U the unfold of the padded
// plane [c, ph, pw]: the bits of Im2Col followed by Gemm(false, false, 1,
// W, U, 0, out). An odd last output channel goes as a pair with itself,
// in place. It runs on the calling goroutine: Conv2D.Forward fans its
// samples out.
func ConvPlane(w []float64, outC int, plane []float64, c, ph, pw, k int, out []float64) {
	oh, ow, rows := ph-k+1, pw-k+1, c*k*k
	sp := oh * ow
	var taps [kTile]int
	pn := panel{b: plane, ldb: pw, segs: oh, n: ow, ldc: ow}
	for p0 := 0; p0 < rows; p0 += kTile {
		kp := min(kTile, rows-p0)
		pn.taps = convTaps(taps[:kp], p0, k, ph, pw)
		mode := addTo
		if p0 == 0 {
			mode = writeTo
		}
		for o := 0; o < outC; o += 2 {
			o1 := min(o+1, outC-1)
			axpyRows2(w[o*rows+p0:][:kp], w[o1*rows+p0:][:kp], &pn, out[o*sp:][:sp], out[o1*sp:][:sp], mode)
		}
	}
}

// ConvPlaneFilterGrad adds one sample's filter gradient to dw [outC,
// c·k·k]: dw += g·Uᵀ for the output gradient g [outC, oh·ow] and the
// unfold U of the padded plane [c, ph, pw] — the bits of Gemm(false,
// true, 1, g, U, 1, dw).
func ConvPlaneFilterGrad(g []float64, outC int, plane []float64, c, ph, pw, k int, dw []float64) {
	if !convParallel(outC, c, ph, pw, k) {
		filterGradRows(g, outC, plane, c, ph, pw, k, dw, 0, outC)
		return
	}
	ForEach((outC+1)/2, Parallelism(), func(_, pair int) {
		filterGradRows(g, outC, plane, c, ph, pw, k, dw, 2*pair, min(2*pair+2, outC))
	})
}

// filterGradRows is ConvPlaneFilterGrad for the dw rows [lo, hi), lo
// even. An odd last row goes as a pair with itself, in place.
func filterGradRows(g []float64, outC int, plane []float64, c, ph, pw, k int, dw []float64, lo, hi int) {
	oh, ow, rows := ph-k+1, pw-k+1, c*k*k
	sp := oh * ow
	var taps [kTile]int
	pn := panel{b: plane, ldb: pw, segs: oh, n: ow}
	for p0 := 0; p0 < rows; p0 += kTile {
		kp := min(kTile, rows-p0)
		pn.taps = convTaps(taps[:kp], p0, k, ph, pw)
		for o := lo; o < hi; o += 2 {
			o1 := min(o+1, hi-1)
			dotPanel2(g[o*sp:][:sp], g[o1*sp:][:sp], &pn, 1, dw[o*rows+p0:][:kp], dw[o1*rows+p0:][:kp], false)
		}
	}
}

// ConvPlaneInputGrad writes one sample's input gradient dx [c, h, w] of
// a stride-1 k×k convolution with padding pad: the unfold's gradient D =
// Wᵀ·g (wt = Wᵀ [c·k·k, outC], g [outC, oh·ow]) folded back onto the
// input. D is never stored: each of its rows is summed in registers, one
// output-row segment at a time, and added at once to the plane its tap
// covers — dx itself when pad is 0, else the zero-padded plane scratch
// [c, h+2·pad, w+2·pad], whose interior is then copied out. The bits are
// those of Gemm(true, false, 1, W, g, 0, D) followed by Col2Im(D): every
// D element sums its o pairs from +0, and every dx element its taps in
// (ki, kj) order from +0. Two rows of D go through a kernel call
// together only when they belong to different channels, whose planes do
// not overlap.
func ConvPlaneInputGrad(wt, g []float64, outC, c, h, wd, k, pad int, scratch, dx []float64) {
	ph, pw := h+2*pad, wd+2*pad
	acc := dx
	if pad > 0 {
		acc = scratch[:c*ph*pw]
	}
	clear(acc)
	if !convParallel(outC, c, ph, pw, k) {
		inputGradChannels(wt, g, outC, 0, c, ph, pw, k, acc)
	} else {
		ForEach((c+1)/2, Parallelism(), func(_, pair int) {
			inputGradChannels(wt, g, outC, 2*pair, min(2*pair+2, c), ph, pw, k, acc)
		})
	}
	if pad > 0 {
		for ch := 0; ch < c; ch++ {
			for i := 0; i < h; i++ {
				copy(dx[(ch*h+i)*wd:(ch*h+i+1)*wd], acc[(ch*ph+pad+i)*pw+pad:])
			}
		}
	}
}

// inputGradChannels is ConvPlaneInputGrad's fold for the channels [lo,
// hi), lo even, into the planes acc [c, ph, pw]. An odd last channel goes
// as a pair with itself, in place.
func inputGradChannels(wt, g []float64, outC, lo, hi, ph, pw, k int, acc []float64) {
	oh, ow, kk := ph-k+1, pw-k+1, k*k
	var buf [2 * kTile]int
	gtaps := buf[:0]
	if outC > len(buf) {
		gtaps = make([]int, 0, outC)
	}
	for o := 0; o < outC; o++ {
		gtaps = append(gtaps, o*oh*ow)
	}
	pn := panel{b: g, taps: gtaps, ldb: ow, ldc: pw, segs: oh, n: ow}
	for t := 0; t < kk; t++ {
		off := (t/k)*pw + t%k
		for ch := lo; ch < hi; ch += 2 {
			ch1 := min(ch+1, hi-1)
			axpyRows2(wt[(ch*kk+t)*outC:][:outC], wt[(ch1*kk+t)*outC:][:outC], &pn,
				acc[ch*ph*pw+off:(ch+1)*ph*pw], acc[ch1*ph*pw+off:(ch1+1)*ph*pw], foldInto)
		}
	}
}
