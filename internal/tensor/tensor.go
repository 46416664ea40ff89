// Package tensor provides dense, row-major, float64 tensors and the small
// set of linear-algebra kernels a CPU deep-learning stack needs: GEMM with
// optional transposes, im2col/col2im for convolutions, element-wise
// arithmetic, N-dimensional prefix-block copies (the primitive behind
// AdaptiveFL's width-wise pruning and heterogeneous aggregation), and a
// bump-allocated Workspace for the tensors a training step creates and
// drops together.
//
// Tensors are plain values: Shape describes the logical dimensions and
// Data holds len = prod(Shape) contiguous elements. The zero Tensor is
// empty and ready to use.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major array of float64 values.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, numel(shape))}
}

// numel returns the element count of shape, rejecting negative
// dimensions. The panic formats a copy, so that shape itself does not
// escape and callers' variadic slices stay on their stacks.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly, not copied. It panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if n := numel(t.Shape); n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", t.Shape, n, len(data)))
	}
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Randn returns a tensor with elements drawn from N(0, std²) using rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Numel reports the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float64, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. The element
// count must be unchanged. One dimension may be -1 and is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer, n := -1, 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in Reshape")
			}
			infer = i
		} else {
			n *= d
		}
	}
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim for shape %v from %d elements", shape, len(t.Data)))
		}
		shape[infer] = len(t.Data) / n
		n *= shape[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %d elements", shape, len(t.Data)))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// Strides returns row-major strides for the tensor's shape.
func (t *Tensor) Strides() []int {
	s := make([]int, len(t.Shape))
	acc := 1
	for i := len(t.Shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= t.Shape[i]
	}
	return s
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns v to the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != shape rank %d", len(idx), len(t.Shape)))
	}
	off, acc := 0, 1
	for i := len(t.Shape) - 1; i >= 0; i-- {
		if idx[i] < 0 || idx[i] >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off += idx[i] * acc
		acc *= t.Shape[i]
	}
	return off
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element of t to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddInPlace adds o to t element-wise. Shapes must match.
func (t *Tensor) AddInPlace(o *Tensor) {
	mustSameLen(t, o)
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element of t by a.
func (t *Tensor) Scale(a float64) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled adds a*o to t element-wise (axpy).
func (t *Tensor) AddScaled(a float64, o *Tensor) {
	mustSameLen(t, o)
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// ArgMax returns the index of the largest element in t.Data.
func (t *Tensor) ArgMax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func mustSameLen(a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", len(a.Data), len(b.Data)))
	}
}

// String renders a compact description, useful in test failures.
func (t *Tensor) String() string {
	if t.Numel() <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elems]", t.Shape, t.Numel())
}
