package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// Workspace is a bump allocator for the tensors one training or inference
// step creates and drops together: layer outputs, input gradients, the
// padded planes and column blocks a convolution unfolds its input into,
// masks, loss temporaries and the per-sample views a convolution builds. Every tensor it hands out — data and header — stays valid until
// the next Reset, which makes all of them reusable at once.
//
// The slab sizes itself: a step that needs more than the slab holds takes
// the excess from the heap, and the Reset that follows regrows the slab to
// that step's whole demand, so after one warm-up step of the largest
// (model, batch) a workspace owns exactly one slab and allocates nothing.
//
// A nil *Workspace is valid and means "allocate": Alloc and Zeros behave
// like New, View like FromSlice, Reset does nothing. Layers therefore
// call the workspace unconditionally, and a layer nobody bound to a
// workspace behaves as if the type did not exist.
//
// A workspace is owned by one goroutine at a time. A layer that fans work
// out (Conv2D.Forward) takes everything it needs before it does.
type Workspace struct {
	slab []float64
	used int // elements handed out since the last Reset, heap excess included
	hdrs []*Tensor
	nhdr int
}

// header returns the next reusable tensor header with its Shape set.
func (w *Workspace) header(shape []int) *Tensor {
	if w.nhdr == len(w.hdrs) {
		w.hdrs = append(w.hdrs, &Tensor{})
	}
	t := w.hdrs[w.nhdr]
	w.nhdr++
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Alloc returns a tensor of the given shape with undefined contents: slab
// memory is dirty, so the caller must overwrite every element (Gemm with
// beta 0, Im2Col, Col2Im, PadPlane and ConvPlane do). Use Zeros where code accumulates into
// the result.
func (w *Workspace) Alloc(shape ...int) *Tensor {
	if w == nil {
		return New(shape...)
	}
	n := numel(shape)
	t := w.header(shape)
	if end := w.used + n; end <= len(w.slab) {
		t.Data = w.slab[w.used:end:end]
	} else {
		t.Data = make([]float64, n)
	}
	w.used += n
	return t
}

// Zeros is Alloc with every element set to zero.
func (w *Workspace) Zeros(shape ...int) *Tensor {
	t := w.Alloc(shape...)
	if w != nil {
		clear(t.Data)
	}
	return t
}

// View wraps data (not copied) in a tensor of the given shape, like
// FromSlice but with a reusable header.
func (w *Workspace) View(data []float64, shape ...int) *Tensor {
	if w == nil {
		return FromSlice(data, shape...)
	}
	t := w.header(shape)
	if n := numel(t.Shape); n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", t.Shape, n, len(data)))
	}
	t.Data = data
	return t
}

// Reset invalidates every tensor handed out since the previous Reset and
// makes the slab available again, regrown first if the step outran it.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	if w.used > len(w.slab) {
		for _, t := range w.hdrs[:w.nhdr] {
			t.Data = nil // let go of the slab being replaced and the heap excess
		}
		w.slab = make([]float64, w.used)
	}
	w.used, w.nhdr = 0, 0
}

// Cap reports the slab's size in elements.
func (w *Workspace) Cap() int {
	if w == nil {
		return 0
	}
	return len(w.slab)
}

// FreeList recycles the idle owners of reusable buffers — training arenas,
// evaluation workspaces, wire frame writers and readers — between the
// calls that rent them. Get hands out
// the most recently returned value, or a new one; Put keeps at most
// GOMAXPROCS idle values and drops the rest. Unlike a sync.Pool it keeps
// them through garbage collection and hands any idle value to any
// goroutine, so a process that rents one at a time builds one.
type FreeList[T any] struct {
	New func() T

	mu   sync.Mutex
	idle []T
}

// Get returns an idle value, or a new one when none is idle.
func (f *FreeList[T]) Get() T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.idle)
	if n == 0 {
		return f.New()
	}
	v := f.idle[n-1]
	var zero T
	f.idle[n-1] = zero
	f.idle = f.idle[:n-1]
	return v
}

// Put returns v to the list.
func (f *FreeList[T]) Put(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.idle) < runtime.GOMAXPROCS(0) {
		f.idle = append(f.idle, v)
	}
}
