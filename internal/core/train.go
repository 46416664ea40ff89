package core

import (
	"fmt"
	"math/rand"
	"sync"

	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
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

// Validate rejects a configuration local training cannot run: no epochs, a
// batch size below one, or a non-positive learning rate.
func (tc *TrainConfig) Validate() error {
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
	if err := tc.Validate(); err != nil {
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

// DeviceStep is a device's side of one dispatch once its pruning decision
// is made (Steps 4-5 of Algorithm 1): local training of the resolved
// member, the client's adversarial behavior, and the uplink encode. The
// in-process server and every fednet agent run it, so both paths train and
// tamper bit-identically. Adversarial behaviors inject after training,
// before the wire, exactly where a compromised device would tamper.
type DeviceStep struct {
	Model     models.Config
	Train     TrainConfig
	Adversary AdversarySpec
	// Codec encodes the upload against the dispatched state; nil returns
	// the raw trained state (the in-process path without a wire codec).
	Codec wire.Codec
	// Replays is the stale-replay behavior's memory; required whenever
	// the adversary mix includes stale replay.
	Replays *Replays
}

// Replays holds each stale-replay client's previous trained state, keyed
// by client. A client trains at most one flight at a time, so the replayed
// state is deterministic; the mutex only guards cross-client map access.
// The zero value is ready to use.
type Replays struct {
	mu   sync.Mutex
	prev map[int]nn.State
}

// Run trains got from the request's dispatched state on the client's
// shard. With a codec it returns the encoded upload, whose bytes a corrupt
// client has bit-flipped; without one it returns the trained state, which
// a corrupt client has poisoned with NaNs instead.
func (d DeviceStep) Run(req TrainRequest, got prune.Submodel, shard *data.Dataset) (nn.State, []byte, error) {
	trained, err := TrainLocal(d.Model, got.Widths, req.State, shard, d.Train, rand.New(rand.NewSource(req.Seed)))
	if err != nil {
		return nil, nil, err
	}
	b := d.Adversary.BehaviorOf(req.Client)
	trained = d.applyBehavior(req.Client, b, trained, req.State)
	if d.Codec == nil {
		if b == Corrupt {
			trained = poisonState(trained)
		}
		return trained, nil, nil
	}
	up, err := d.Codec.Encode(trained, req.State)
	if err != nil {
		return nil, nil, err
	}
	if b == Corrupt {
		d.Adversary.CorruptPayload(req.Client, up)
	}
	return nil, up, nil
}

// applyBehavior transforms a client's trained state according to its
// adversarial behavior: stateless transforms through Mutate, stale replay
// through the Replays cache. Corrupt acts on the upload (Run), not here.
func (d DeviceStep) applyBehavior(client int, b Behavior, trained, sent nn.State) nn.State {
	if b != StaleReplay {
		return d.Adversary.Mutate(b, trained, sent)
	}
	r := d.Replays
	r.mu.Lock()
	if r.prev == nil {
		r.prev = map[int]nn.State{}
	}
	prev := r.prev[client]
	r.prev[client] = trained.Clone()
	r.mu.Unlock()
	if prev != nil {
		return prev
	}
	return trained
}
