// Package nn implements the training substrate AdaptiveFL runs on: neural
// network layers with hand-written forward/backward passes, losses, and an
// SGD optimizer — all on internal/tensor. Every layer's gradient is
// validated against finite differences in the package tests.
//
// Layers operate on batches: convolutional layers take [N,C,H,W] tensors,
// dense layers take [N,F]. A layer caches whatever its Backward pass needs
// during Forward, so the usual usage is strictly
// Forward → Backward → optimizer step. Some layers (ReLU, BatchNorm2D)
// keep a reference to their input rather than a copy, so a tensor given
// to a train-mode Forward must not change until that layer's Backward has
// run.
//
// Every tensor a step creates — outputs, input gradients, im2col blocks,
// masks, views — comes from the tensor.Workspace the layer is bound to
// (SetWorkspace) and is valid until that workspace's next Reset; whoever
// owns the workspace resets it once per step. An unbound layer returns
// freshly allocated tensors, so a layer built alone needs no workspace.
package nn

import (
	"fmt"
	"sort"

	"adaptivefl/internal/tensor"
)

// Param is a named, trainable (or buffer) tensor attached to a layer.
// Names are stable across model reconstructions at different widths, which
// is what lets AdaptiveFL slice and aggregate heterogeneous submodels.
type Param struct {
	Name string
	Val  *tensor.Tensor
	Grad *tensor.Tensor
	// Buffer marks non-trainable state (e.g. BatchNorm running statistics):
	// it is carried in state dicts and aggregated across clients, but the
	// optimizer never touches it.
	Buffer bool
}

func newParam(name string, val *tensor.Tensor) *Param {
	return &Param{Name: name, Val: val, Grad: tensor.New(val.Shape...)}
}

func newBuffer(name string, val *tensor.Tensor) *Param {
	return &Param{Name: name, Val: val, Buffer: true}
}

// Layer is a differentiable module. Forward consumes a batch and returns
// the output batch; Backward consumes dLoss/dOutput and returns
// dLoss/dInput, accumulating parameter gradients along the way. Backward
// may read the tensor given to the last train-mode Forward, which the
// caller leaves unchanged in between.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// stepAlloc is embedded by every layer that creates per-step tensors: ws
// is where they come from. A nil ws (the zero value) allocates.
type stepAlloc struct {
	ws  *tensor.Workspace
	own []float64 // see kept
}

// SetWorkspace binds the layer to ws; nil unbinds it.
func (a *stepAlloc) SetWorkspace(ws *tensor.Workspace) { a.ws, a.own = ws, nil }

// kept returns n elements, contents undefined, for what a Forward keeps
// inside the layer for its Backward and never hands to a caller: column
// blocks, per-channel statistics, argmax tables. A bound layer takes them
// from ws like everything else. An unbound layer owes its callers fresh
// tensors, but these it may recycle, so it keeps one buffer of its own —
// an unbound training loop (a test, a probe) should not pay for a
// zero-filled column matrix per convolution per step.
func (a *stepAlloc) kept(n int) []float64 {
	if a.ws != nil {
		return a.ws.Alloc(n).Data
	}
	if cap(a.own) < n {
		a.own = make([]float64, n)
	}
	return a.own[:n]
}

// SetWorkspace binds l — and, through the composite layers' own
// SetWorkspace methods, every layer beneath it — to ws, so that all of
// the model's per-step tensors share one slab. A workspace serves one
// goroutine at a time, which makes it the property of whoever drives the
// model: a training arena, an evaluation call. Layers without the method
// keep allocating.
func SetWorkspace(l Layer, ws *tensor.Workspace) {
	if u, ok := l.(interface{ SetWorkspace(*tensor.Workspace) }); ok {
		u.SetWorkspace(ws)
	}
}

// Sequential chains layers. It implements Layer.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// SetWorkspace binds every layer of the chain to ws.
func (s *Sequential) SetWorkspace(ws *tensor.Workspace) {
	for _, l := range s.Layers {
		SetWorkspace(l, ws)
	}
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// State is a named snapshot of parameter values — the wire format FL
// exchanges between server and clients.
type State map[string]*tensor.Tensor

// StateDict deep-copies every parameter (and buffer) of l into a State.
func StateDict(l Layer) State {
	st := make(State)
	for _, p := range l.Params() {
		if _, dup := st[p.Name]; dup {
			panic(fmt.Sprintf("nn: duplicate parameter name %q", p.Name))
		}
		st[p.Name] = p.Val.Clone()
	}
	return st
}

// LoadState copies values from st into l's parameters by name. Every
// parameter of l must be present with an identical shape; extra entries in
// st are ignored (they belong to larger variants of the model).
func LoadState(l Layer, st State) error {
	for _, p := range l.Params() {
		v, ok := st[p.Name]
		if !ok {
			return fmt.Errorf("nn: state missing parameter %q", p.Name)
		}
		if !tensor.SameShape(v, p.Val) {
			return fmt.Errorf("nn: parameter %q shape %v != model shape %v", p.Name, v.Shape, p.Val.Shape)
		}
		copy(p.Val.Data, v.Data)
	}
	return nil
}

// Clone deep-copies a State.
func (st State) Clone() State {
	c := make(State, len(st))
	for k, v := range st {
		c[k] = v.Clone()
	}
	return c
}

// Names returns the sorted parameter names in st.
func (st State) Names() []string {
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// NumParams returns the total element count across all tensors in st.
func (st State) NumParams() int {
	n := 0
	for _, v := range st {
		n += v.Numel()
	}
	return n
}

// ZeroGrads clears the gradient of every trainable parameter of l.
func ZeroGrads(l Layer) {
	ZeroGradParams(l.Params())
}

// ZeroGradParams clears the gradients of a pre-collected parameter slice,
// for hot loops that hoist Params() out of the per-batch path.
func ZeroGradParams(params []*Param) {
	for _, p := range params {
		if !p.Buffer {
			p.Grad.Zero()
		}
	}
}
