package core

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
)

// TrainConfig holds the local-training hyperparameters. The paper's
// defaults are SGD with lr 0.01, momentum 0.5, batch 50, 5 local epochs.
type TrainConfig struct {
	LocalEpochs int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
}

// DefaultTrainConfig returns the paper's local-training setup.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{LocalEpochs: 5, BatchSize: 50, LR: 0.01, Momentum: 0.5}
}

func (tc *TrainConfig) validate() error {
	if tc.LocalEpochs < 1 || tc.BatchSize < 1 || tc.LR <= 0 {
		return fmt.Errorf("core: invalid train config %+v", *tc)
	}
	return nil
}

// TrainLocal loads the (prefix-sliced) state into a model at the given
// widths, runs LocalEpochs of SGD over the dataset and returns the trained
// state. It is the LocalTrain(.) of Algorithm 1 and is shared by every
// baseline. The model and optimizer come from a rented training arena:
// repeated trainings of the same construction reuse one set of parameter,
// gradient and momentum tensors instead of rebuilding them per dispatch —
// bit-identical to a fresh build (LoadState overwrites every parameter and
// buffer, gradients are zeroed per batch, SGD.Reset zeroes the momentum).
// Each batch's activations and gradients live in the arena's workspace,
// reset at the top of the batch; the returned state is a copy.
func TrainLocal(mcfg models.Config, widths []int, st nn.State, ds *data.Dataset, tc TrainConfig, rng *rand.Rand) (nn.State, error) {
	if err := tc.validate(); err != nil {
		return nil, err
	}
	a := rentArena()
	defer returnArena(a)
	model, params, opt, err := a.modelFor(mcfg, widths, tc)
	if err != nil {
		return nil, err
	}
	sliced, err := prune.ExtractForModel(st, model)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadState(model, sliced); err != nil {
		return nil, err
	}
	for epoch := 0; epoch < tc.LocalEpochs; epoch++ {
		for _, batch := range ds.Batches(rng, tc.BatchSize) {
			a.ws.Reset()
			x, labels := ds.Gather(batch)
			nn.ZeroGradParams(params)
			logits := model.Forward(x, true)
			_, grad := nn.CrossEntropyIn(a.ws, logits, labels)
			model.Backward(grad)
			opt.Step(params)
		}
	}
	return nn.StateDict(model), nil
}
