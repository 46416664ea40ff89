package exp

import (
	"fmt"

	"adaptivefl/internal/baselines"
	"adaptivefl/internal/core"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/testbed"
	"adaptivefl/internal/wire"
)

// NewRunner constructs an algorithm runner by name. Supported names:
// All-Large, Decoupled, HeteroFL, ScaleFL, AdaptiveFL, plus the Figure 5
// ablation variants AdaptiveFL+Greedy / +Random / +C / +S / +CS and the
// Table 4 coarse variant AdaptiveFL-Coarse.
func NewRunner(name string, fed *Federation, sc Scale) (baselines.Runner, error) {
	setup := baselines.Setup{
		Model:       fed.Model,
		Clients:     fed.Clients,
		K:           sc.K,
		Train:       sc.TrainConfig(),
		Seed:        sc.Seed + 101,
		Parallelism: sc.Parallelism,
	}
	adaptiveRL := func(mode rl.Mode, greedy bool, p int, rlCfg rl.Config, label string) (baselines.Runner, error) {
		var codec wire.Codec
		if sc.Codec != "" {
			var err error
			if codec, err = wire.ByTag(sc.Codec); err != nil {
				return nil, err
			}
		}
		_, adv, err := sc.SplitAdversary()
		if err != nil {
			return nil, err
		}
		if sc.Trainer != nil {
			// A real transport owns the wire encoding end to end; applying
			// the codec in-process as well would encode twice.
			codec = nil
		}
		if m := sc.Observer.Metrics(); m != nil {
			// Timed wrapping reports wall-clock codec latency to the metrics
			// registry only — the span stream and the simulation never see it.
			codec = wire.Timed(codec, m)
		}
		a, err := baselines.NewAdaptive(core.Config{
			Model:           fed.Model,
			Pool:            prune.Config{P: p},
			RL:              rlCfg,
			Mode:            mode,
			Greedy:          greedy,
			ClientsPerRound: sc.K,
			Train:           sc.TrainConfig(),
			Seed:            sc.Seed + 101,
			Parallelism:     sc.Parallelism,
			Trainer:         sc.Trainer,
			Codec:           codec,
			Observer:        sc.Observer,
			Agg:             sc.Agg,
			Adversary:       adv,
		}, fed.Clients, label)
		if err != nil || sc.Sched == "" {
			return a, err
		}
		return schedRunner(a, fed, sc)
	}
	adaptive := func(mode rl.Mode, greedy bool, p int, label string) (baselines.Runner, error) {
		return adaptiveRL(mode, greedy, p, rl.Config{}, label)
	}
	switch name {
	case "AdaptiveFL+LiteralRL":
		// docs/FIDELITY.md deviation ablation: apply Algorithm 1 line 18
		// exactly as printed (the p−1 bonus lands on the L_1 row).
		return adaptiveRL(rl.ModeCS, false, 3, rl.Config{LiteralL1Bonus: true}, name)
	case "All-Large":
		return baselines.NewAllLarge(setup)
	case "Decoupled":
		return baselines.NewDecoupled(setup, fed.Pool)
	case "HeteroFL":
		return baselines.NewHeteroFL(setup)
	case "ScaleFL":
		return baselines.NewScaleFL(setup)
	case "AdaptiveFL", "AdaptiveFL+CS":
		return adaptive(rl.ModeCS, false, 3, name)
	case "AdaptiveFL+C":
		return adaptive(rl.ModeC, false, 3, name)
	case "AdaptiveFL+S":
		return adaptive(rl.ModeS, false, 3, name)
	case "AdaptiveFL+Random":
		return adaptive(rl.ModeRandom, false, 3, name)
	case "AdaptiveFL+Greedy":
		return adaptive(rl.ModeRandom, true, 3, name)
	case "AdaptiveFL-Coarse":
		return adaptive(rl.ModeCS, false, 1, name)
	}
	return nil, fmt.Errorf("exp: unknown algorithm %q", name)
}

// schedRunner wraps an AdaptiveFL runner with the event-driven scheduler:
// the Table 5 platform prices every dispatch, sc.Trace shapes per-client
// availability (weak-class devices are the straggler spec's targets), and
// sc.Sched picks the aggregation policy.
func schedRunner(a *baselines.Adaptive, fed *Federation, sc Scale) (baselines.Runner, error) {
	policy, err := sched.ParsePolicy(sc.Sched)
	if err != nil {
		return nil, err
	}
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		return nil, err
	}
	weak := func(c int) bool { return fed.Clients[c].Device.Class == core.Weak }
	trace, err := sched.ParseTrace(sc.Trace, sc.Seed+909, weak)
	if err != nil {
		return nil, err
	}
	eng, err := sched.New(a.Srv, sim, trace, sched.Config{
		Policy: policy,
		K:      sc.K,
		Epochs: sc.LocalEpochs,
	})
	if err != nil {
		return nil, err
	}
	return baselines.NewSchedAdaptive(a, eng, policy), nil
}

// RunCurve advances a runner for the scale's rounds, evaluating every
// EvalEvery rounds (and at the final round), and returns the curve with
// series "full", "avg" and the per-level submodels.
func RunCurve(r baselines.Runner, fed *Federation, sc Scale) (*eval.Curve, error) {
	curve := &eval.Curve{}
	record := func(round int) error {
		acc, err := r.Evaluate(fed.Test, 64)
		if err != nil {
			return err
		}
		point := map[string]float64{}
		for k, v := range acc {
			point[k] = v
		}
		if avg := baselines.AvgOf(acc); avg > 0 {
			point["avg"] = avg
		}
		curve.Add(round, point)
		return nil
	}
	for round := 1; round <= sc.Rounds; round++ {
		if err := r.Round(); err != nil {
			return nil, err
		}
		if round%sc.EvalEvery == 0 || round == sc.Rounds {
			if err := record(round); err != nil {
				return nil, err
			}
		}
	}
	return curve, nil
}

// BestOf returns the best recorded value of a series — the convention the
// paper's tables use (accuracy of the best global model over training).
func BestOf(curve *eval.Curve, series string) float64 {
	best := 0.0
	for _, p := range curve.Points {
		if v, ok := p.Acc[series]; ok && v > best {
			best = v
		}
	}
	return best
}
