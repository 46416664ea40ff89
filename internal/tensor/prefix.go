package tensor

import "fmt"

// Prefix-block operations.
//
// AdaptiveFL's width-wise pruning always keeps the leading channels of
// every dimension, so a pruned parameter tensor is exactly the prefix
// block dst[0:s0, 0:s1, ...] of the full tensor. These helpers copy and
// accumulate such blocks for arbitrary rank, which is all that model
// dispatch (ExtractPrefix) and Algorithm 2 aggregation (AccumulatePrefix)
// need.

// PrefixFits reports whether small's shape is elementwise <= big's shape
// with equal rank.
func PrefixFits(small, big *Tensor) bool {
	if len(small.Shape) != len(big.Shape) {
		return false
	}
	for i := range small.Shape {
		if small.Shape[i] > big.Shape[i] {
			return false
		}
	}
	return true
}

// ExtractPrefix copies the prefix block of src with the given shape into a
// freshly allocated tensor. shape must be elementwise <= src.Shape.
func ExtractPrefix(src *Tensor, shape []int) *Tensor {
	dst := New(shape...)
	ExtractPrefixInto(dst, src)
	return dst
}

// ExtractPrefixInto copies the prefix block of src with dst's shape into
// dst. dst.Shape must be elementwise <= src.Shape.
func ExtractPrefixInto(dst, src *Tensor) {
	if !PrefixFits(dst, src) {
		panic(fmt.Sprintf("tensor: prefix shape %v does not fit in %v", dst.Shape, src.Shape))
	}
	// Layer tensors have rank ≤ 4: the strides live on the stack.
	var srcBuf, dstBuf [4]int
	copyPrefix(dst.Data, src.Data, dst.Shape, stridesInto(srcBuf[:0], src.Shape), stridesInto(dstBuf[:0], dst.Shape))
}

// CopyPrefixInto writes src into the prefix block of dst. src.Shape must be
// elementwise <= dst.Shape. Elements of dst outside the block are left
// untouched.
func CopyPrefixInto(dst, src *Tensor) {
	if !PrefixFits(src, dst) {
		panic(fmt.Sprintf("tensor: prefix shape %v does not fit in %v", src.Shape, dst.Shape))
	}
	copyPrefix(dst.Data, src.Data, src.Shape, src.Strides(), dst.Strides())
}

// AccumulatePrefix adds weight*src into dst's prefix block and adds weight
// into the matching block of counts. dst and counts share dst's shape. It
// is the inner loop of heterogeneous aggregation (Algorithm 2).
func AccumulatePrefix(dst, counts, src *Tensor, weight float64) {
	if !PrefixFits(src, dst) || !SameShape(dst, counts) {
		panic("tensor: AccumulatePrefix shape mismatch")
	}
	dstStr, srcStr := dst.Strides(), src.Strides()
	accumPrefix(dst.Data, counts.Data, src.Data, src.Shape, dstStr, srcStr, weight)
}

func copyPrefix(dst, src []float64, shape, srcStr, dstStr []int) {
	if len(shape) == 0 {
		dst[0] = src[0]
		return
	}
	if len(shape) == 1 {
		copy(dst[:shape[0]], src[:shape[0]])
		return
	}
	for i := 0; i < shape[0]; i++ {
		copyPrefix(dst[i*dstStr[0]:], src[i*srcStr[0]:], shape[1:], srcStr[1:], dstStr[1:])
	}
}

func accumPrefix(dst, counts, src []float64, shape, dstStr, srcStr []int, w float64) {
	if len(shape) == 0 {
		dst[0] += w * src[0]
		counts[0] += w
		return
	}
	if len(shape) == 1 {
		for i := 0; i < shape[0]; i++ {
			dst[i] += w * src[i]
			counts[i] += w
		}
		return
	}
	for i := 0; i < shape[0]; i++ {
		off := i * dstStr[0]
		accumPrefix(dst[off:], counts[off:], src[i*srcStr[0]:], shape[1:], dstStr[1:], srcStr[1:], w)
	}
}
