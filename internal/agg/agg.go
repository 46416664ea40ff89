// Package agg implements AdaptiveFL's heterogeneous model aggregation
// (paper Algorithm 2): every uploaded submodel parameter is a prefix block
// of the corresponding global tensor, so the server accumulates
// weight·value and weight per element and divides; elements not covered by
// any upload keep their previous global value.
package agg

import (
	"cmp"
	"fmt"
	"slices"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// Update is one client's trained submodel with its aggregation weight
// (the paper uses the local dataset size |d_c|).
type Update struct {
	State  nn.State
	Weight float64
}

// Aggregate merges heterogeneous updates into a new global state. Every
// tensor in every update must have the same name as — and fit as a prefix
// block of — the matching global tensor, and every value must be finite
// (a NaN or Inf would silently poison every element it touches). Updates
// may omit parameters they do not hold; parameters no update covers are
// carried over unchanged.
func Aggregate(global nn.State, updates []Update) (nn.State, error) {
	return perTensor(global, updates, func(g *tensor.Tensor, covering []coveredTensor) *tensor.Tensor {
		acc := tensor.New(g.Shape...)
		cnt := tensor.New(g.Shape...)
		for _, cv := range covering {
			tensor.AccumulatePrefix(acc, cnt, cv.t, cv.weight)
		}
		res := g.Clone()
		for i := range res.Data {
			if cnt.Data[i] > 0 {
				res.Data[i] = acc.Data[i] / cnt.Data[i]
			}
		}
		return res
	})
}

// coveredTensor is one update's tensor for a global parameter, with the
// update's aggregation weight.
type coveredTensor struct {
	t      *tensor.Tensor
	weight float64
}

// perTensor admits the updates and merges every global tensor from the
// updates that hold it, in update order; a tensor no update holds is
// carried over as a copy. A nil merge only admits. The global's tensors
// are fanned out over up to tensor.Parallelism() workers, largest first:
// each output tensor is a function of its own inputs alone, so the result
// is the same at any width.
//
// Admission fails on a non-positive weight, a parameter the global lacks,
// a tensor that does not fit its global as a prefix block, or a
// non-finite value. Of several failures the error names the lowest update
// index, then (after its weight) the first parameter in sorted order.
func perTensor(global nn.State, updates []Update, merge func(g *tensor.Tensor, covering []coveredTensor) *tensor.Tensor) (nn.State, error) {
	var first *admitErr
	for ui, u := range updates {
		if u.Weight <= 0 {
			first = first.min(&admitErr{ui, "", fmt.Errorf("agg: update %d has non-positive weight %v", ui, u.Weight)})
			break
		}
		for name := range u.State {
			if _, ok := global[name]; !ok {
				first = first.min(&admitErr{ui, name, fmt.Errorf("agg: update %d has unknown parameter %q", ui, name)})
			}
		}
	}
	if first != nil {
		merge = nil // the result is discarded: only admit
	}

	names := global.Names()
	slices.SortStableFunc(names, func(a, b string) int { return cmp.Compare(len(global[b].Data), len(global[a].Data)) })
	outs := make([]*tensor.Tensor, len(names))
	errs := make([]*admitErr, len(names))
	tensor.ForEach(len(names), tensor.Parallelism(), func(_, i int) {
		outs[i], errs[i] = admitTensor(names[i], global[names[i]], updates, merge)
	})

	for _, e := range errs {
		first = first.min(e)
	}
	if first != nil {
		return nil, first.err
	}
	out := make(nn.State, len(names))
	for i, name := range names {
		out[name] = outs[i]
	}
	return out, nil
}

// admitTensor admits every update's tensor for name, stopping at the
// first failure, and merges them if all are admitted (and merge is set).
func admitTensor(name string, g *tensor.Tensor, updates []Update, merge func(*tensor.Tensor, []coveredTensor) *tensor.Tensor) (*tensor.Tensor, *admitErr) {
	covering := make([]coveredTensor, 0, len(updates))
	for ui, u := range updates {
		v, ok := u.State[name]
		if !ok {
			continue
		}
		if !tensor.PrefixFits(v, g) {
			return nil, &admitErr{ui, name, fmt.Errorf("agg: update %d parameter %q shape %v does not fit global %v", ui, name, v.Shape, g.Shape)}
		}
		for _, x := range v.Data {
			if x-x != 0 { // NaN or ±Inf
				return nil, &admitErr{ui, name, fmt.Errorf("agg: update %d parameter %q contains a non-finite value", ui, name)}
			}
		}
		covering = append(covering, coveredTensor{t: v, weight: u.Weight})
	}
	switch {
	case merge == nil:
		return nil, nil
	case len(covering) == 0:
		return g.Clone(), nil
	}
	return merge(g, covering), nil
}

// admitErr is one admission failure with its place in the reporting
// order: update index, then parameter name ("" for the update's weight).
type admitErr struct {
	update int
	name   string
	err    error
}

// min returns the earlier of a and b; nil is later than any failure, and
// of two at the same place a (found first) wins.
func (a *admitErr) min(b *admitErr) *admitErr {
	if a == nil || (b != nil && (b.update < a.update || b.update == a.update && b.name < a.name)) {
		return b
	}
	return a
}

// validateUpdates runs Aggregate's admission checks without aggregating.
func validateUpdates(global nn.State, updates []Update) error {
	_, err := perTensor(global, updates, nil)
	return err
}
