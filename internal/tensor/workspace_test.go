package tensor

import (
	"math"
	"runtime"
	"testing"
)

// step plays one step's worth of requests against w.
func step(w *Workspace) (a, z, v *Tensor) {
	a = w.Alloc(4, 8)
	z = w.Zeros(3, 5)
	v = w.View(a.Data[:8], 2, 4)
	return a, z, v
}

// TestWorkspaceReuse pins the allocator's contract: a step that outruns
// the slab is served from the heap, the Reset after it regrows the slab to
// the step's whole demand, and from then on the same step gets the same
// memory and the same headers back and allocates nothing.
func TestWorkspaceReuse(t *testing.T) {
	w := &Workspace{}
	a0, _, _ := step(w)
	if w.Cap() != 0 {
		t.Fatalf("slab grew to %d before the first Reset", w.Cap())
	}
	a0.Data[0] = 42 // heap excess is ordinary memory
	w.Reset()
	if w.Cap() != 4*8+3*5 {
		t.Fatalf("slab holds %d elements after the warm-up step, want %d", w.Cap(), 4*8+3*5)
	}

	a1, z1, v1 := step(w)
	for i := range a1.Data {
		a1.Data[i] = math.NaN() // dirty the slab for the next step
	}
	for i := range z1.Data {
		z1.Data[i] = math.NaN()
	}
	w.Reset()
	a2, z2, v2 := step(w)
	if a2 != a1 || z2 != z1 || v2 != v1 {
		t.Fatal("tensor headers were not reused after Reset")
	}
	if &a2.Data[0] != &a1.Data[0] || &z2.Data[0] != &z1.Data[0] {
		t.Fatal("slab memory was not reused after Reset")
	}
	if a2.Shape[0] != 4 || a2.Shape[1] != 8 || len(a2.Data) != 32 || len(v2.Data) != 8 || v2.Shape[1] != 4 {
		t.Fatalf("recycled shapes %v %v", a2.Shape, v2.Shape)
	}
	if !math.IsNaN(a2.Data[0]) {
		t.Fatal("Alloc paid for a zero fill it does not promise")
	}
	for i, x := range z2.Data {
		if x != 0 {
			t.Fatalf("Zeros left dirty slab memory at %d: %v", i, x)
		}
	}
	if cap(a2.Data) != len(a2.Data) {
		t.Fatal("an Alloc'd tensor can be appended into its neighbour")
	}

	if n := testing.AllocsPerRun(20, func() { w.Reset(); step(w) }); n != 0 {
		t.Fatalf("a warm step allocates %v objects", n)
	}

	// A larger step regrows the slab once; a smaller one leaves it alone.
	w.Reset()
	step(w)
	w.Alloc(100)
	w.Reset()
	if w.Cap() != 4*8+3*5+100 {
		t.Fatalf("slab holds %d elements after a larger step, want %d", w.Cap(), 4*8+3*5+100)
	}
	step(w)
	w.Reset()
	if w.Cap() != 4*8+3*5+100 {
		t.Fatalf("slab shrank to %d", w.Cap())
	}
}

// TestWorkspaceNil: a nil workspace allocates — Alloc and Zeros are New,
// View is FromSlice, Reset and Cap are harmless — and empty shapes work
// on both.
func TestWorkspaceNil(t *testing.T) {
	var w *Workspace
	a := w.Alloc(2, 3)
	b := w.Zeros(2, 3)
	if len(a.Data) != 6 || len(b.Data) != 6 || &a.Data[0] == &b.Data[0] {
		t.Fatal("nil workspace must hand out fresh tensors")
	}
	for _, x := range append(a.Data, b.Data...) {
		if x != 0 {
			t.Fatal("nil workspace must hand out zeroed tensors, as New does")
		}
	}
	v := w.View(a.Data, 3, 2)
	if &v.Data[0] != &a.Data[0] || v.Shape[0] != 3 {
		t.Fatal("nil View must wrap, not copy")
	}
	w.Reset()
	if w.Cap() != 0 {
		t.Fatal("nil workspace has no slab")
	}
	for _, ws := range []*Workspace{nil, {}} {
		if e := ws.Alloc(0, 5); len(e.Data) != 0 || e.Shape[1] != 5 {
			t.Fatalf("empty tensor has %d elements, shape %v", len(e.Data), e.Shape)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("View must reject a shape that does not match the data")
				}
			}()
			ws.View(make([]float64, 5), 2, 3)
		}()
	}
}

// TestFreeListKeepsIdleThroughGC: a value returned to a FreeList is the
// one the next Get hands out, garbage collections in between, and the
// list keeps no more than GOMAXPROCS idle values.
func TestFreeListKeepsIdleThroughGC(t *testing.T) {
	built := 0
	f := FreeList[*Workspace]{New: func() *Workspace { built++; return &Workspace{} }}
	ws := f.Get()
	for i := 0; i < 5; i++ {
		f.Put(ws)
		runtime.GC()
		runtime.GC()
		if got := f.Get(); got != ws {
			t.Fatalf("round %d: Get built a new value after a GC instead of reusing the idle one", i)
		}
	}
	if built != 1 {
		t.Fatalf("built %d values for one renter, want 1", built)
	}
	procs := runtime.GOMAXPROCS(0)
	for i := 0; i < procs+3; i++ {
		f.Put(&Workspace{})
	}
	if len(f.idle) != procs {
		t.Fatalf("%d idle values kept, want GOMAXPROCS = %d", len(f.idle), procs)
	}
}
