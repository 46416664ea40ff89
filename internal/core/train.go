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

// Validate rejects a configuration local training cannot run: no epochs, a
// batch size below one, or a non-positive learning rate.
func (tc *TrainConfig) Validate() error {
	if tc.LocalEpochs < 1 || tc.BatchSize < 1 || tc.LR <= 0 {
		return fmt.Errorf("core: invalid train config %+v", *tc)
	}
	return nil
}

// TrainLocal loads the prefix blocks of st into a model at the given
// widths, runs LocalEpochs of SGD over the dataset and returns the trained
// state. It is the LocalTrain(.) of Algorithm 1 and is shared by every
// baseline. Training runs in a rented arena (trainInArena); the returned
// state is a copy, since it outlives the arena.
func TrainLocal(mcfg models.Config, widths []int, st nn.State, ds *data.Dataset, tc TrainConfig, rng *rand.Rand) (nn.State, error) {
	var trained nn.State
	err := trainInArena(mcfg, widths, st, ds, tc, rng, func(view nn.State) error {
		trained = view.Clone()
		return nil
	})
	return trained, err
}

// trainInArena is the one local-training loop. The model and optimizer
// come from a rented training arena: repeated trainings of the same
// construction reuse one set of parameter, gradient and momentum tensors
// instead of rebuilding them per dispatch — bit-identical to a fresh
// build (prune.LoadPrefix overwrites every parameter and buffer, gradients
// are zeroed per batch, SGD.Reset zeroes the momentum). Each batch's
// activations and gradients live in the arena's workspace, reset at the
// top of the batch. use gets the trained weights as the arena entry's
// view, whose tensors are the model's own parameters: it may read them
// but not write them, and must copy whatever it keeps past its return,
// when the arena goes back to the pool.
func trainInArena(mcfg models.Config, widths []int, st nn.State, ds *data.Dataset, tc TrainConfig, rng *rand.Rand, use func(view nn.State) error) error {
	if err := tc.Validate(); err != nil {
		return err
	}
	a := rentArena()
	defer returnArena(a)
	e, err := a.entry(mcfg, widths, tc)
	if err != nil {
		return err
	}
	if err := prune.LoadPrefix(e, st); err != nil {
		return err
	}
	for epoch := 0; epoch < tc.LocalEpochs; epoch++ {
		for _, batch := range ds.Batches(rng, tc.BatchSize) {
			a.ws.Reset()
			x, labels := ds.Gather(batch)
			nn.ZeroGradParams(e.params)
			logits := e.model.Forward(x, true)
			_, grad := nn.CrossEntropyIn(a.ws, logits, labels)
			e.model.Backward(grad)
			e.opt.Step(e.params)
		}
	}
	return use(e.view)
}

// DeviceStep is a device's side of one dispatch once its pruning decision
// is made (Steps 4-5 of Algorithm 1): local training of the resolved
// member, the client's adversarial behavior, and the uplink encode. The
// in-process server and every fednet agent run it, so both paths train and
// tamper bit-identically. Adversarial behaviors inject after training,
// before the wire, exactly where a compromised device would tamper. It
// trains through the same arena loop as TrainLocal but keeps the arena
// until the upload is encoded, so the encode reads the model's own
// parameters and no copy of the trained state is made for it.
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
//
// The behavior and the encode read the trained weights straight from the
// training arena's parameters, before the arena goes back. A state is
// copied only where it outlives the arena: the codec-less result (a
// poisoned clone for a corrupt client), a stale-replay snapshot, and the
// fresh tensors of an update transform.
func (d DeviceStep) Run(req TrainRequest, got prune.Submodel, shard *data.Dataset) (nn.State, []byte, error) {
	var trained nn.State
	var up []byte
	err := trainInArena(d.Model, got.Widths, req.State, shard, d.Train, rand.New(rand.NewSource(req.Seed)), func(view nn.State) error {
		b := d.Adversary.BehaviorOf(req.Client)
		out, owned := d.applyBehavior(req.Client, b, view, req.State)
		if d.Codec == nil {
			switch {
			case b == Corrupt:
				trained = poisonState(out)
			case owned:
				trained = out
			default:
				trained = out.Clone()
			}
			return nil
		}
		var err error
		if up, err = d.Codec.Encode(out, req.State); err != nil {
			return err
		}
		if b == Corrupt {
			d.Adversary.CorruptPayload(req.Client, up)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return trained, up, nil
}

// applyBehavior transforms a client's trained state according to its
// adversarial behavior: stateless transforms through Mutate, stale replay
// through the Replays cache. Corrupt acts on the upload (Run), not here.
// trained may be the arena's view; owned reports whether the result is a
// state of its own (a transform's fresh tensors, a replayed snapshot)
// rather than trained itself.
func (d DeviceStep) applyBehavior(client int, b Behavior, trained, sent nn.State) (st nn.State, owned bool) {
	switch b {
	case SignFlip, ScaleAttack, FreeRide:
		return d.Adversary.Mutate(b, trained, sent), true
	case StaleReplay:
		return d.Replays.swap(client, trained)
	}
	return trained, false
}

// swap stores a copy of trained as the client's snapshot and returns the
// snapshot it replaces; a client's first flight has none and gets trained
// back.
func (r *Replays) swap(client int, trained nn.State) (st nn.State, owned bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.prev == nil {
		r.prev = map[int]nn.State{}
	}
	prev := r.prev[client]
	r.prev[client] = trained.Clone()
	if prev != nil {
		return prev, true
	}
	return trained, false
}
