package baselines

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/tensor"
)

// ScaleFL is Ilhan et al.'s two-dimensional scaling baseline: submodels
// shrink both in width and in depth, truncated models classify through
// early-exit heads, and larger models distil knowledge from their deepest
// exit into the earlier ones during local training (self-distillation).
// This is a re-implementation from the paper's description; see DESIGN.md
// §5.
type ScaleFL struct {
	setup Setup
	// Per level (S, M, L): width rate, number of exits kept, widths.
	levels []scaleLevel
	global nn.State
	rng    *rand.Rand
	temp   float64 // distillation temperature
	kdW    float64 // distillation loss weight
}

type scaleLevel struct {
	name   string
	width  float64
	exits  int // how many exits the level keeps (1 = first exit only)
	widths []int
}

// NewScaleFL builds the baseline with depth fractions ≈1/3 and ≈2/3 for
// the small and medium levels and width rates chosen so the three levels
// weigh roughly 0.25×, 0.5× and 1.0× of the full model.
func NewScaleFL(s Setup) (*ScaleFL, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	spec := s.Model.Spec()
	sf := &ScaleFL{setup: s, rng: rand.New(rand.NewSource(s.Seed)), temp: 3, kdW: 0.5}
	for _, lv := range []struct {
		name  string
		width float64
		exits int
	}{
		{"S1", 0.60, 1},
		{"M1", 0.80, 2},
		{"L1", 1.00, 3},
	} {
		sf.levels = append(sf.levels, scaleLevel{
			name:   lv.name,
			width:  lv.width,
			exits:  lv.exits,
			widths: prune.PlanWidths(spec.FullWidths, lv.width, 0),
		})
	}
	full, err := sf.buildNet(sf.levels[2])
	if err != nil {
		return nil, err
	}
	sf.global = nn.StateDict(multiExitLayer{full})
	return sf, nil
}

// Name implements Runner.
func (sf *ScaleFL) Name() string { return "ScaleFL" }

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
func (sf *ScaleFL) buildNet(lv scaleLevel) (*multiExit, error) {
	m, err := models.Build(sf.setup.Model, lv.widths)
	if err != nil {
		return nil, err
	}
	cuts := cutPoints(m)
	me := &multiExit{}
	rng := rand.New(rand.NewSource(sf.setup.Model.Seed + 1000))
	addHead := func(idx int, ep models.ExitPoint) {
		head := []nn.Layer{
			nn.NewGlobalAvgPool2D(),
			nn.NewFlatten(),
			nn.NewLinear(rng, fmt.Sprintf("exit%d.fc", idx+1), ep.Channels, sf.setup.Model.NumClasses, true),
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
			nn.NewLinear(rng, "exit1.fc", cuts[0].Channels, sf.setup.Model.NumClasses, true),
		}
		me.segments[0] = append(append([]nn.Layer(nil), me.segments[0]...), head...)
	case 2:
		me.segments = [][]nn.Layer{
			m.Layers[:cuts[0].LayerIdx+1],
			append(append([]nn.Layer(nil), m.Layers[cuts[0].LayerIdx+1:cuts[1].LayerIdx+1]...),
				nn.NewGlobalAvgPool2D(), nn.NewFlatten(),
				nn.NewLinear(rng, "exit2.fc", cuts[1].Channels, sf.setup.Model.NumClasses, true)),
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

// levelFor maps device classes to ScaleFL levels (resource info is known
// to ScaleFL, as in its paper).
func (sf *ScaleFL) levelFor(class core.DeviceClass) scaleLevel {
	switch class {
	case core.Strong:
		return sf.levels[2]
	case core.Medium:
		return sf.levels[1]
	default:
		return sf.levels[0]
	}
}

// trainLocal runs the multi-exit local objective: cross-entropy at every
// exit plus distillation from the deepest exit into the earlier ones.
func (sf *ScaleFL) trainLocal(lv scaleLevel, ds *data.Dataset, seed int64) (nn.State, error) {
	me, err := sf.buildNet(lv)
	if err != nil {
		return nil, err
	}
	wrapper := multiExitLayer{me}
	st, err := prune.ExtractForModel(sf.global, wrapper)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadState(wrapper, st); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	opt := nn.NewSGD(sf.setup.Train.LR, sf.setup.Train.Momentum, sf.setup.Train.WeightDecay)
	// One step workspace for this training: every exit's logits and
	// gradients live until the Reset at the top of the next batch, and
	// only the state dict (a copy) leaves.
	ws := &tensor.Workspace{}
	wrapper.SetWorkspace(ws)
	for epoch := 0; epoch < sf.setup.Train.LocalEpochs; epoch++ {
		for _, batch := range ds.Batches(rng, sf.setup.Train.BatchSize) {
			ws.Reset()
			x, labels := ds.Gather(batch)
			nn.ZeroGrads(wrapper)
			outs := me.forwardAll(x, true)
			grads := make([]*tensor.Tensor, len(outs))
			deepest := outs[len(outs)-1]
			for i, logits := range outs {
				_, g := nn.CrossEntropyIn(ws, logits, labels)
				if i < len(outs)-1 {
					_, kd := nn.DistillKL(logits, deepest, sf.temp)
					g.AddScaled(sf.kdW, kd)
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

// Round selects K clients uniformly; each trains its class's ScaleFL level
// with the multi-exit distillation objective.
func (sf *ScaleFL) Round() error {
	sel := pickClients(sf.rng, len(sf.setup.Clients), sf.setup.K)
	states := make([]nn.State, len(sel))
	errs := make([]error, len(sel))
	seeds := make([]int64, len(sel))
	for i := range sel {
		seeds[i] = sf.rng.Int63()
	}
	runParallel(len(sel), sf.setup.Parallelism, func(i int) {
		client := sf.setup.Clients[sel[i]]
		states[i], errs[i] = sf.trainLocal(sf.levelFor(client.Device.Class), client.Data, seeds[i])
	})
	var updates []agg.Update
	for i := range sel {
		if errs[i] != nil {
			return errs[i]
		}
		updates = append(updates, agg.Update{State: states[i], Weight: float64(sf.setup.Clients[sel[i]].Data.Len())})
	}
	next, err := agg.Aggregate(sf.global, updates)
	if err != nil {
		return err
	}
	sf.global = next
	return nil
}

// Evaluate reports each level's accuracy through its own deepest exit;
// "full" is the L level's final classifier.
func (sf *ScaleFL) Evaluate(test *data.Dataset, batch int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, lv := range sf.levels {
		me, err := sf.buildNet(lv)
		if err != nil {
			return nil, err
		}
		wrapper := multiExitLayer{me}
		st, err := prune.ExtractForModel(sf.global, wrapper)
		if err != nil {
			return nil, err
		}
		if err := nn.LoadState(wrapper, st); err != nil {
			return nil, err
		}
		acc := eval.Accuracy(wrapper, test, batch)
		out[lv.name] = acc
		if lv.name == "L1" {
			out["full"] = acc
		}
	}
	return out, nil
}
