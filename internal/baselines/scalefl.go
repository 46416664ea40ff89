package baselines

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/tensor"
)

// ScaleFL's self-distillation temperature and distillation loss weight.
const (
	scaleFLTemp = 3
	scaleFLKDW  = 0.5
)

// NewScaleFL builds Ilhan et al.'s two-dimensional scaling baseline:
// submodels shrink both in width and in depth, truncated models classify
// through early-exit heads, and larger models distil knowledge from their
// deepest exit into the earlier ones during local training
// (self-distillation). Its levels keep 1, 2 and 3 exits (depth ≈1/3, ≈2/3
// and 1) at width rates chosen so they weigh roughly 0.25×, 0.5× and 1.0×
// of the full model. This is a re-implementation from the paper's
// description; see docs/FIDELITY.md.
func NewScaleFL(s Setup) (*Static, error) {
	var levels [3]level
	for i, width := range [3]float64{0.60, 0.80, 1.00} {
		levels[i] = level{name: levelNames[i], widths: prune.PlanWidths(s.Model.Spec().FullWidths, width, 0), exits: i + 1}
	}
	return newStatic("ScaleFL", s, levels, buildScaleFL, trainScaleFL)
}

// cutPoints picks the two early-exit attachment points at ≈1/3 and ≈2/3 of
// the backbone's exit candidates.
func cutPoints(m *models.Model) [2]models.ExitPoint {
	n := len(m.Exits)
	i1 := n / 3
	i2 := 2 * n / 3
	if i2 <= i1 {
		i2 = i1 + 1
	}
	if i2 >= n {
		i2 = n - 1
	}
	if i1 >= i2 {
		i1 = i2 - 1
	}
	return [2]models.ExitPoint{m.Exits[i1], m.Exits[i2]}
}

// multiExit wraps a backbone split into segments with early-exit heads.
// Segment i feeds head i (for i < len(heads)); the final segment ends in
// the model's own classifier, acting as the deepest exit.
type multiExit struct {
	segments [][]nn.Layer
	heads    [][]nn.Layer // len = len(segments)-1
}

// forwardAll returns the logits of every exit, shallow to deep.
func (me *multiExit) forwardAll(x *tensor.Tensor, train bool) []*tensor.Tensor {
	var outs []*tensor.Tensor
	a := x
	for i, seg := range me.segments {
		for _, l := range seg {
			a = l.Forward(a, train)
		}
		if i < len(me.heads) {
			h := a
			for _, l := range me.heads[i] {
				h = l.Forward(h, train)
			}
			outs = append(outs, h)
		} else {
			outs = append(outs, a)
		}
	}
	return outs
}

// backwardAll injects one gradient per exit and backpropagates jointly.
func (me *multiExit) backwardAll(grads []*tensor.Tensor) {
	if len(grads) != len(me.segments) {
		panic(fmt.Sprintf("baselines: %d exit grads for %d segments", len(grads), len(me.segments)))
	}
	var g *tensor.Tensor
	for i := len(me.segments) - 1; i >= 0; i-- {
		if i < len(me.heads) {
			hg := grads[i]
			for j := len(me.heads[i]) - 1; j >= 0; j-- {
				hg = me.heads[i][j].Backward(hg)
			}
			if g == nil {
				g = hg
			} else {
				g.AddInPlace(hg)
			}
		} else {
			g = grads[i]
		}
		for j := len(me.segments[i]) - 1; j >= 0; j-- {
			g = me.segments[i][j].Backward(g)
		}
	}
}

func (me *multiExit) params() []*nn.Param {
	var ps []*nn.Param
	for _, seg := range me.segments {
		for _, l := range seg {
			ps = append(ps, l.Params()...)
		}
	}
	for _, h := range me.heads {
		for _, l := range h {
			ps = append(ps, l.Params()...)
		}
	}
	return ps
}

// asLayer adapts a multiExit to nn.Layer for state-dict handling; Forward
// returns the deepest exit's logits.
type multiExitLayer struct{ me *multiExit }

func (m multiExitLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	outs := m.me.forwardAll(x, train)
	return outs[len(outs)-1]
}
func (m multiExitLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	panic("baselines: use backwardAll on multiExit")
}
func (m multiExitLayer) Params() []*nn.Param { return m.me.params() }
func (m multiExitLayer) SetWorkspace(ws *tensor.Workspace) {
	for _, group := range [][][]nn.Layer{m.me.segments, m.me.heads} {
		for _, ls := range group {
			for _, l := range ls {
				nn.SetWorkspace(l, ws)
			}
		}
	}
}

// buildNet constructs the multi-exit network for one level: a backbone at
// the level's widths truncated to its exit count, with fresh-named heads.
func buildNet(mcfg models.Config, lv level) (*multiExit, error) {
	m, err := models.Build(mcfg, lv.widths)
	if err != nil {
		return nil, err
	}
	cuts := cutPoints(m)
	me := &multiExit{}
	rng := rand.New(rand.NewSource(mcfg.Seed + 1000))
	addHead := func(idx int, ep models.ExitPoint) {
		head := []nn.Layer{
			nn.NewGlobalAvgPool2D(),
			nn.NewFlatten(),
			nn.NewLinear(rng, fmt.Sprintf("exit%d.fc", idx+1), ep.Channels, mcfg.NumClasses, true),
		}
		me.heads = append(me.heads, head)
	}
	switch lv.exits {
	case 1:
		me.segments = [][]nn.Layer{m.Layers[:cuts[0].LayerIdx+1]}
		// The single exit is the head itself: treat it as the final
		// segment's classifier by appending head layers to the segment.
		head := []nn.Layer{
			nn.NewGlobalAvgPool2D(),
			nn.NewFlatten(),
			nn.NewLinear(rng, "exit1.fc", cuts[0].Channels, mcfg.NumClasses, true),
		}
		me.segments[0] = append(append([]nn.Layer(nil), me.segments[0]...), head...)
	case 2:
		me.segments = [][]nn.Layer{
			m.Layers[:cuts[0].LayerIdx+1],
			append(append([]nn.Layer(nil), m.Layers[cuts[0].LayerIdx+1:cuts[1].LayerIdx+1]...),
				nn.NewGlobalAvgPool2D(), nn.NewFlatten(),
				nn.NewLinear(rng, "exit2.fc", cuts[1].Channels, mcfg.NumClasses, true)),
		}
		addHead(0, cuts[0])
	case 3:
		me.segments = [][]nn.Layer{
			m.Layers[:cuts[0].LayerIdx+1],
			m.Layers[cuts[0].LayerIdx+1 : cuts[1].LayerIdx+1],
			m.Layers[cuts[1].LayerIdx+1:],
		}
		addHead(0, cuts[0])
		addHead(1, cuts[1])
	default:
		return nil, fmt.Errorf("baselines: unsupported exit count %d", lv.exits)
	}
	return me, nil
}

// buildScaleFL is ScaleFL's model builder: the level's multi-exit network.
func buildScaleFL(mcfg models.Config, lv level) (nn.Layer, error) {
	me, err := buildNet(mcfg, lv)
	if err != nil {
		return nil, err
	}
	return multiExitLayer{me}, nil
}

// trainScaleFL runs the multi-exit local objective from the given global:
// cross-entropy at every exit plus distillation from the deepest exit into
// the earlier ones.
func trainScaleFL(s Setup, lv level, global nn.State, ds *data.Dataset, seed int64) (nn.State, error) {
	me, err := buildNet(s.Model, lv)
	if err != nil {
		return nil, err
	}
	wrapper := multiExitLayer{me}
	if err := prune.LoadPrefix(wrapper, global); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	opt := nn.NewSGD(s.Train.LR, s.Train.Momentum, s.Train.WeightDecay)
	// One step workspace for this training: every exit's logits and
	// gradients live until the Reset at the top of the next batch, and
	// only the state dict (a copy) leaves.
	ws := &tensor.Workspace{}
	wrapper.SetWorkspace(ws)
	for epoch := 0; epoch < s.Train.LocalEpochs; epoch++ {
		for _, batch := range ds.Batches(rng, s.Train.BatchSize) {
			ws.Reset()
			x, labels := ds.Gather(batch)
			nn.ZeroGrads(wrapper)
			outs := me.forwardAll(x, true)
			grads := make([]*tensor.Tensor, len(outs))
			deepest := outs[len(outs)-1]
			for i, logits := range outs {
				_, g := nn.CrossEntropyIn(ws, logits, labels)
				if i < len(outs)-1 {
					_, kd := nn.DistillKL(logits, deepest, scaleFLTemp)
					g.AddScaled(scaleFLKDW, kd)
				}
				g.Scale(1 / float64(len(outs)))
				grads[i] = g
			}
			me.backwardAll(grads)
			opt.Step(wrapper.Params())
		}
	}
	return nn.StateDict(wrapper), nil
}
