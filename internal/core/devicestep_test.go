package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
)

// refDeviceStep is the device step as it ran before training moved into
// the arena's own parameters, frozen: a fresh model loaded through
// ExtractForModel → LoadState, the training loop, a StateDict copy, the
// behavior (stale replay through replays), then the encode.
func refDeviceStep(t *testing.T, d DeviceStep, replays map[int]nn.State, req TrainRequest, got prune.Submodel, shard *data.Dataset) (nn.State, []byte) {
	t.Helper()
	model := models.MustBuild(d.Model, got.Widths)
	sliced, err := prune.ExtractForModel(req.State, model)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadState(model, sliced); err != nil {
		t.Fatal(err)
	}
	tc := d.Train
	opt := nn.NewSGD(tc.LR, tc.Momentum, tc.WeightDecay)
	rng := rand.New(rand.NewSource(req.Seed))
	for epoch := 0; epoch < tc.LocalEpochs; epoch++ {
		for _, batch := range shard.Batches(rng, tc.BatchSize) {
			x, labels := shard.Gather(batch)
			nn.ZeroGrads(model)
			logits := model.Forward(x, true)
			_, grad := nn.CrossEntropy(logits, labels)
			model.Backward(grad)
			opt.Step(model.Params())
		}
	}
	trained := nn.StateDict(model)

	b := d.Adversary.BehaviorOf(req.Client)
	if b == StaleReplay {
		prev := replays[req.Client]
		replays[req.Client] = trained.Clone()
		if prev != nil {
			trained = prev
		}
	} else {
		trained = d.Adversary.Mutate(b, trained, req.State)
	}
	if d.Codec == nil {
		if b == Corrupt {
			trained = poisonState(trained)
		}
		return trained, nil
	}
	up, err := d.Codec.Encode(trained, req.State)
	if err != nil {
		t.Fatal(err)
	}
	if b == Corrupt {
		d.Adversary.CorruptPayload(req.Client, up)
	}
	return nil, up
}

// sameBits reports whether two states hold the same names, shapes and
// float64 bits (NaN payloads included).
func sameBits(a, b nn.State) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d tensors, want %d", len(a), len(b))
	}
	for name, w := range b {
		g, ok := a[name]
		if !ok {
			return fmt.Errorf("missing %q", name)
		}
		if fmt.Sprint(g.Shape) != fmt.Sprint(w.Shape) {
			return fmt.Errorf("%q shape %v, want %v", name, g.Shape, w.Shape)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				return fmt.Errorf("%q element %d: %v, want %v", name, i, g.Data[i], w.Data[i])
			}
		}
	}
	return nil
}

// TestDeviceStepMatchesReference pins DeviceStep.Run, which trains in the
// arena's parameters and encodes from its view, against the frozen
// copying pipeline, for every codec and behavior. Every flight of a codec
// runs through one arena before any result is checked, so a result that
// still aliased the arena would have been overwritten by the flights
// after it. A stale-replay client flies twice in a row: the second upload
// must be the first flight's weights, not the arena's live parameters.
func TestDeviceStepMatchesReference(t *testing.T) {
	mcfg, global, shard, tc := arenaTestSetup(t)
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The device keeps a smaller member than it was sent, so the load
	// slices prefix blocks and the delta codec diffs against a sliced
	// reference.
	sent := pool.Members[len(pool.Members)-2]
	got := pool.Smallest()
	sentState, err := pool.ExtractState(global, sent)
	if err != nil {
		t.Fatal(err)
	}
	codecs := []wire.Codec{nil, wire.Raw{}, wire.F32{}, wire.Q8{}, wire.NewDeltaTopK()}
	behaviors := []Behavior{Honest, SignFlip, ScaleAttack, FreeRide, StaleReplay, StaleReplay, Corrupt}

	for _, codec := range codecs {
		tag := "none"
		if codec != nil {
			tag = codec.Tag()
		}
		type flight struct {
			name    string
			trained nn.State
			up      []byte
		}
		var gotFlights, wantFlights []flight
		replays := &Replays{}
		refReplays := map[int]nn.State{}
		for i, b := range behaviors {
			adv := AdversarySpec{K: 10, Seed: 3}
			if b != Honest {
				adv.Frac = 1
				adv.Weights[b-1] = 1
			}
			d := DeviceStep{Model: mcfg, Train: tc, Adversary: adv, Codec: codec, Replays: replays}
			req := TrainRequest{Client: 5, Sent: sent, State: sentState, Seed: int64(40 + i)}
			name := fmt.Sprintf("%s/%d:%v", tag, i, b)
			trained, up, err := d.Run(req, got, shard)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			gotFlights = append(gotFlights, flight{name, trained, up})
			want, wantUp := refDeviceStep(t, d, refReplays, req, got, shard)
			wantFlights = append(wantFlights, flight{name, want, wantUp})
		}
		for i, g := range gotFlights {
			w := wantFlights[i]
			if !bytes.Equal(g.up, w.up) {
				t.Errorf("%s: upload differs from the reference (%d bytes, want %d)", g.name, len(g.up), len(w.up))
			}
			if (g.trained == nil) != (w.trained == nil) {
				t.Errorf("%s: state returned %v, reference %v", g.name, g.trained != nil, w.trained != nil)
				continue
			}
			if g.trained != nil {
				if err := sameBits(g.trained, w.trained); err != nil {
					t.Errorf("%s: %v", g.name, err)
				}
			}
		}
	}
}

// fanoutModel is wire_fanout's VGG-16 (766k parameters).
func fanoutModel() models.Config {
	return models.Config{Arch: models.VGG16, NumClasses: 10, InChannels: 3, InputSize: 32, WidthScale: 0.15, Seed: 1}
}

// TestDeviceStepAllocBudget pins the copy-free step: a warm DeviceStep.Run
// on the fanout VGG-16 (two samples) allocates its frame and bookkeeping,
// but neither a sliced copy of the dispatched state nor a copy of the
// trained one. Beyond the frame it must stay below one state's bytes; each
// of those copies alone is that much. It holds for the delta codec and for
// raw, whose frame carries every value as 8 bytes.
func TestDeviceStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates heap accounting past the budget")
	}
	mcfg := fanoutModel()
	global := nn.StateDict(models.MustBuild(mcfg, nil))
	dcfg := data.SynthConfig{Name: "f", Classes: 10, Channels: 3, Size: 32, Train: 2, Test: 1, Noise: 0.3, MaxShift: 1, Seed: 4}
	shard, _ := data.Generate(dcfg)
	full := prune.Submodel{Widths: nil}
	stateBytes := uint64(8 * global.NumParams())
	for _, codec := range []wire.Codec{wire.NewDeltaTopK(), wire.Raw{}} {
		d := DeviceStep{Model: mcfg, Train: TrainConfig{LocalEpochs: 1, BatchSize: 10, LR: 0.1, Momentum: 0.5},
			Codec: codec}
		req := TrainRequest{Client: 1, State: global, Seed: 7}
		var frame int
		step := func() {
			_, up, err := d.Run(req, full, shard)
			if err != nil {
				t.Fatal(err)
			}
			frame = len(up)
		}
		step() // builds the arena's model and sizes its slab and the frame writer
		step()
		perCall, objects := heapPerCall(5, step)
		beyond := perCall - uint64(frame)
		t.Logf("%s: %d bytes in %d objects per step (%d beyond the %d-byte frame); one state is %d bytes",
			codec.Tag(), perCall, objects, beyond, frame, stateBytes)
		if beyond >= stateBytes {
			t.Errorf("a warm %s-codec device step allocates %d bytes beyond its frame; budget one state, %d bytes",
				codec.Tag(), beyond, stateBytes)
		}
	}
}
