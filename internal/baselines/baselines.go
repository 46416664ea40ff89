// Package baselines implements the four comparison methods of the paper's
// evaluation: All-Large (classic FedAvg on the full model), Decoupled
// (independent FedAvg per size level), HeteroFL (static nested width
// scaling), and ScaleFL (two-dimensional width+depth scaling with early
// exits and self-distillation). All baselines share AdaptiveFL's training
// substrate, device population and aggregation machinery so comparisons
// isolate the algorithmic differences.
package baselines

import (
	"fmt"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/models"
)

// Setup is the experiment context shared by every algorithm.
type Setup struct {
	Model   models.Config
	Clients []*core.Client
	K       int // clients per round
	Train   core.TrainConfig
	Seed    int64
}

func (s *Setup) validate() error {
	if len(s.Clients) == 0 {
		return fmt.Errorf("baselines: no clients")
	}
	if s.K < 1 || s.K > len(s.Clients) {
		return fmt.Errorf("baselines: K=%d outside [1,%d]", s.K, len(s.Clients))
	}
	return s.Train.Validate()
}

// Runner is a federated algorithm under test: it advances one round at a
// time and reports named accuracies ("full" plus the per-level submodels
// it defines, keyed "L1"/"M1"/"S1").
type Runner interface {
	Name() string
	Round() error
	Evaluate(test *data.Dataset, batch int) (map[string]float64, error)
}

// AvgOf computes the paper's "avg" metric from an Evaluate result: the
// mean of the per-level submodel accuracies present.
func AvgOf(acc map[string]float64) float64 {
	return eval.MeanOf(acc, "L1", "M1", "S1")
}
