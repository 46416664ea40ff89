package baselines

import (
	"slices"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/prune"
)

// Adaptive adapts core.Server (AdaptiveFL itself) to the Runner interface
// so the experiment harness can sweep it alongside the baselines.
type Adaptive struct {
	Srv *core.Server
	// Label overrides Name() for ablation variants (e.g. "AdaptiveFL+C").
	Label string
}

// NewAdaptive builds an AdaptiveFL runner from a server configuration.
func NewAdaptive(cfg core.Config, clients []*core.Client, label string) (*Adaptive, error) {
	srv, err := core.NewServer(cfg, clients)
	if err != nil {
		return nil, err
	}
	if label == "" {
		label = "AdaptiveFL"
	}
	return &Adaptive{Srv: srv, Label: label}, nil
}

// AdaptiveOf returns the AdaptiveFL runner behind r, whether it runs the
// synchronous loop or the event engine (SchedAdaptive), and false for a
// baseline.
func AdaptiveOf(r Runner) (*Adaptive, bool) {
	switch a := r.(type) {
	case *Adaptive:
		return a, true
	case *SchedAdaptive:
		return a.Adaptive, true
	}
	return nil, false
}

// Name implements Runner.
func (a *Adaptive) Name() string { return a.Label }

// Round implements Runner.
func (a *Adaptive) Round() error { return a.Srv.Round() }

// fullIsL1 reports whether the pool's L1 member is the unpruned model: the
// same widths as the global model, hence the same weights once extracted.
func fullIsL1(pool *prune.Pool, fullWidths []int) bool {
	l := pool.Largest()
	return l.Name() == "L1" && slices.Equal(l.Widths, fullWidths)
}

// Evaluate reports the full global model plus the L1/M1/S1 pool members
// extracted from it. When L1 is the unpruned model — every pool this repo
// builds — "full" is reported as its accuracy, as the other baselines do,
// instead of evaluating the most expensive head twice.
func (a *Adaptive) Evaluate(test *data.Dataset, batch int) (map[string]float64, error) {
	out := map[string]float64{}
	full, err := a.Srv.GlobalModel()
	if err != nil {
		return nil, err
	}
	out["full"] = eval.Accuracy(full, test, batch)
	names := []string{"S1", "M1", "L1"}
	if fullIsL1(a.Srv.Pool(), full.Widths) {
		out["L1"] = out["full"]
		names = names[:2]
	}
	for _, name := range names {
		m, err := a.Srv.SubmodelByName(name)
		if err != nil {
			// Coarse pools (P=1) still expose S1/M1/L1; other pool shapes
			// may not — skip absent levels.
			continue
		}
		out[name] = eval.Accuracy(m, test, batch)
	}
	return out, nil
}

// Waste reports the communication-waste rate accumulated so far.
func (a *Adaptive) Waste() float64 { return core.CommWasteRate(a.Srv.Stats()) }
