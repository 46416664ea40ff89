package baselines

import (
	"fmt"
	"math"
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

// level is one row of a baseline's level table: the submodel a device
// class trains and the global it trains into.
type level struct {
	name   string // Evaluate key: "S1"/"M1"/"L1", or "full"
	widths []int  // nil: the full model
	global int    // index into Static.globals
	exits  int    // ScaleFL only: early exits the level keeps (its depth)
}

// Static is a Table 2 baseline: every device class is statically assigned
// one level (resource classes are known to the baselines, as in their
// papers), and one round loop and one evaluate loop serve all four. The
// reference code's Training_HeteroFL.py has the same shape: select
// clients, train each on its assigned model, aggregate, then split the
// global once per level for evaluation.
type Static struct {
	name    string
	setup   Setup
	levels  [3]level // indexed by core.DeviceClass: Weak, Medium, Strong
	globals []nn.State
	rng     *rand.Rand
	build   func(mcfg models.Config, lv level) (nn.Layer, error)
	train   func(s Setup, lv level, global nn.State, ds *data.Dataset, seed int64) (nn.State, error)
}

// buildPlain and trainPlain are the model builder and local objective of
// every baseline but ScaleFL: the plain model and core.TrainLocal.
func buildPlain(mcfg models.Config, lv level) (nn.Layer, error) { return models.Build(mcfg, lv.widths) }

func trainPlain(s Setup, lv level, global nn.State, ds *data.Dataset, seed int64) (nn.State, error) {
	return core.TrainLocal(s.Model, lv.widths, global, ds, s.Train, rand.New(rand.NewSource(seed)))
}

// newStatic validates the setup and builds each global from the widest
// level that trains it.
func newStatic(name string, s Setup, levels [3]level,
	build func(models.Config, level) (nn.Layer, error),
	train func(Setup, level, nn.State, *data.Dataset, int64) (nn.State, error)) (*Static, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	r := &Static{name: name, setup: s, levels: levels, rng: rand.New(rand.NewSource(s.Seed)), build: build, train: train}
	n := 0
	for _, lv := range levels {
		n = max(n, lv.global+1)
	}
	r.globals = make([]nn.State, n)
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		if r.globals[lv.global] != nil {
			continue
		}
		m, err := r.build(s.Model, lv)
		if err != nil {
			return nil, err
		}
		r.globals[lv.global] = nn.StateDict(m)
	}
	return r, nil
}

// NewAllLarge builds classic FedAvg training the unpruned model on every
// selected client, ignoring resource constraints — the paper's upper
// baseline ("All-Large [1]").
func NewAllLarge(s Setup) (*Static, error) {
	full := level{name: "full"}
	return newStatic("All-Large", s, [3]level{full, full, full}, buildPlain, trainPlain)
}

// levelNames names the S, M and L levels, in class order.
var levelNames = [3]string{"S1", "M1", "L1"}

// heteroFLRates are HeteroFL's width rates per level (S, M, L): the square
// roots of the target size ratios, since channel scaling shrinks
// parameters quadratically, so the submodels weigh ≈0.25×, 0.5× and 1.0×
// of the full model — the sizes the paper's Figure 3 compares.
var heteroFLRates = [3]float64{math.Sqrt(0.25), math.Sqrt(0.5), 1.0}

// NewHeteroFL builds Diao et al.'s static width-scaling baseline: nested
// submodels obtained by shrinking every layer of the global model by a
// fixed rate, merged by overlap-averaged aggregation into one global.
func NewHeteroFL(s Setup) (*Static, error) {
	var levels [3]level
	for i, name := range levelNames {
		// I = 0: HeteroFL's coarse scaling prunes every layer.
		levels[i] = level{name: name, widths: prune.PlanWidths(s.Model.Spec().FullWidths, heteroFLRates[i], 0)}
	}
	return newStatic("HeteroFL", s, levels, buildPlain, trainPlain)
}

// NewDecoupled builds three completely independent FedAvg models — the
// pool's largest S, M and L members — each trained by the clients that
// can afford it (paper baseline "Decoupled [1]"). No knowledge flows
// between levels. The paper finds it weakest, but at quick scale it
// beats AdaptiveFL in 4 of 5 seeds on VGG-16 and on ResNet-18, and at
// small scale the two split (ROADMAP item 1).
func NewDecoupled(s Setup, pool *prune.Pool) (*Static, error) {
	var levels [3]level
	for i, lv := range []prune.Level{prune.LevelS, prune.LevelM, prune.LevelL} {
		members := pool.ByLevel(lv)
		if len(members) == 0 {
			return nil, fmt.Errorf("baselines: pool has no %v members", lv)
		}
		top := members[len(members)-1]
		levels[i] = level{name: top.Name(), widths: top.Widths, global: i}
	}
	return newStatic("Decoupled", s, levels, buildPlain, trainPlain)
}

// Name implements Runner.
func (r *Static) Name() string { return r.name }

// Level returns the layer widths a device class trains (nil: the full
// model) and the early exits its level keeps (ScaleFL only; 0 otherwise).
func (r *Static) Level(class core.DeviceClass) (widths []int, exits int) {
	lv := r.levels[class]
	return lv.widths, lv.exits
}

// Round selects K clients uniformly; each trains its class's level, and
// each global takes the data-weighted mean of the updates of the levels
// that train it. The trainings go to tensor.ForEach at
// tensor.Parallelism; each writes only its own state, so the globals do
// not depend on the width.
func (r *Static) Round() error {
	clients := r.setup.Clients
	sel := r.rng.Perm(len(clients))[:r.setup.K]
	lvls := make([]level, len(sel))
	seeds := make([]int64, len(sel))
	for i, c := range sel {
		lvls[i] = r.levels[clients[c].Device.Class]
		seeds[i] = r.rng.Int63()
	}
	states := make([]nn.State, len(sel))
	errs := make([]error, len(sel))
	tensor.ForEach(len(sel), tensor.Parallelism(), func(_, i int) {
		shard, err := clients[sel[i]].Shard()
		if err != nil {
			errs[i] = err
			return
		}
		states[i], errs[i] = r.train(r.setup, lvls[i], r.globals[lvls[i].global], shard, seeds[i])
	})
	updates := make([][]agg.Update, len(r.globals))
	for i, c := range sel {
		if errs[i] != nil {
			return errs[i]
		}
		g := lvls[i].global
		updates[g] = append(updates[g], agg.Update{State: states[i], Weight: float64(clients[c].Samples())})
	}
	for g, ups := range updates {
		if len(ups) == 0 {
			continue
		}
		next, err := agg.Aggregate(r.globals[g], ups)
		if err != nil {
			return err
		}
		r.globals[g] = next
	}
	return nil
}

// Evaluate loads each distinct level from its global and reports its
// accuracy; "full" is the L1 level's.
func (r *Static) Evaluate(test *data.Dataset, batch int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, lv := range r.levels {
		if _, done := out[lv.name]; done {
			continue
		}
		m, err := r.build(r.setup.Model, lv)
		if err != nil {
			return nil, err
		}
		if err := prune.LoadPrefix(m, r.globals[lv.global]); err != nil {
			return nil, err
		}
		out[lv.name] = eval.Accuracy(m, test, batch)
	}
	if acc, ok := out["L1"]; ok {
		out["full"] = acc
	}
	return out, nil
}
