package core

import (
	"math/rand"
	"runtime"
	"testing"

	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/tensor"
)

// quickModel is the quick-scale model cell (exp.QuickScale: width 0.10 on
// 3×32×32 inputs, 10 classes), which this package cannot import.
func quickModel(arch models.Arch) models.Config {
	return models.Config{Arch: arch, NumClasses: 10, InChannels: 3, InputSize: 32, WidthScale: 0.10, Seed: 1}
}

const quickBatch = 10

// heapPerCall runs f calls times and returns the heap bytes and objects
// one call allocated.
func heapPerCall(calls int, f func()) (bytes, objects uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(calls), (m1.Mallocs - m0.Mallocs) / uint64(calls)
}

// trainStep is the body of TrainLocal's batch loop.
func trainStep(a *trainArena, model *models.Model, params []*nn.Param, opt *nn.SGD, x *tensor.Tensor, labels []int) {
	a.ws.Reset()
	nn.ZeroGradParams(params)
	logits := model.Forward(x, true)
	_, grad := nn.CrossEntropyIn(a.ws, logits, labels)
	model.Backward(grad)
	opt.Step(params)
}

// paperTrainConfig is the paper's local-training setup.
var paperTrainConfig = TrainConfig{LocalEpochs: 5, BatchSize: 50, LR: 0.01, Momentum: 0.5}

// TestTrainStepAllocBudget is the step-allocation budget: once an arena
// has run one batch of a model, every further batch takes its activations,
// gradients, column blocks and views from the arena's slab. What is left
// is bookkeeping — each convolution's worker set — measured at 6–9 KiB in
// 120–210 objects, so a quick-scale step stays far under 2 MiB and 500
// objects. (Before the workspace a ResNet-18 step allocated ~32 MiB in
// ~8.5 k objects.)
func TestTrainStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates heap accounting past the budget")
	}
	const maxBytes, maxObjects = 2 << 20, 500
	for _, arch := range []models.Arch{models.ResNet18, models.MobileNetV2} {
		mcfg := quickModel(arch)
		a := newTrainArena()
		model, params, opt, err := a.modelFor(mcfg, nil, paperTrainConfig)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		x := tensor.Randn(rng, 1, quickBatch, 3, 32, 32)
		labels := make([]int, quickBatch)
		step := func() { trainStep(a, model, params, opt, x, labels) }
		step() // sizes the slab, creates the momentum buffers
		step()
		bytes, objects := heapPerCall(10, step)
		t.Logf("%s: %d bytes, %d objects per step; slab %.1f MiB", arch, bytes, objects, float64(a.ws.Cap())*8/(1<<20))
		if bytes > maxBytes || objects > maxObjects {
			t.Errorf("%s: a warm train step allocates %d bytes in %d objects; budget %d / %d", arch, bytes, objects, maxBytes, maxObjects)
		}
	}
}

// TestEvalBatchAllocBudget is the same budget for inference: a warm
// eval.Accuracy over one 64-sample batch allocates the gathered batch
// (64·3·32·32 floats = 1.5 MiB) and bookkeeping, not its activations.
// The budget is held against the cheapest of several calls, so that a
// stray allocation of the runtime's does not fail it.
func TestEvalBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates heap accounting past the budget")
	}
	const maxBytes, maxObjects = 2 << 20, 500
	dcfg := data.SynthConfig{Name: "e", Classes: 10, Channels: 3, Size: 32, Train: 1, Test: 64, Noise: 0.3, MaxShift: 1, Seed: 3}
	_, test := data.Generate(dcfg)
	for _, arch := range []models.Arch{models.ResNet18, models.MobileNetV2} {
		model := models.MustBuild(quickModel(arch), nil)
		call := func() { eval.Accuracy(model, test, 64) }
		call()
		bytes, objects := heapPerCall(1, call)
		for i := 0; i < 9; i++ {
			if b, o := heapPerCall(1, call); b < bytes {
				bytes, objects = b, o
			}
		}
		t.Logf("%s: %d bytes, %d objects per batch", arch, bytes, objects)
		if bytes > maxBytes || objects > maxObjects {
			t.Errorf("%s: a warm eval batch allocates %d bytes in %d objects; budget %d / %d", arch, bytes, objects, maxBytes, maxObjects)
		}
	}
}

// TestArenaOneSlab pins the arena's memory envelope: training every pool
// member of a quick ResNet-18 through one arena leaves one slab, exactly
// the size the largest member needs on its own — the cached models share
// it and hold no step buffers of their own, so a further step of any of
// them allocates next to nothing.
func TestArenaOneSlab(t *testing.T) {
	mcfg := quickModel(models.ResNet18)
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, quickBatch, 3, 32, 32)
	labels := make([]int, quickBatch)
	step := func(a *trainArena, widths []int) {
		model, params, opt, err := a.modelFor(mcfg, widths, paperTrainConfig)
		if err != nil {
			t.Fatal(err)
		}
		trainStep(a, model, params, opt, x, labels)
	}

	alone := newTrainArena()
	step(alone, pool.Largest().Widths)
	alone.ws.Reset()
	want := alone.ws.Cap()
	if want == 0 {
		t.Fatal("the largest member's step left no slab")
	}

	a := newTrainArena()
	for pass := 0; pass < 2; pass++ {
		for _, mem := range pool.Members {
			step(a, mem.Widths)
		}
	}
	a.ws.Reset()
	if len(a.entries) != len(pool.Members) {
		t.Fatalf("arena caches %d models for %d pool members", len(a.entries), len(pool.Members))
	}
	if got := a.ws.Cap(); got != want {
		t.Fatalf("slab holds %d elements after all %d members, want the largest member's %d", got, len(pool.Members), want)
	}
	if raceEnabled {
		return
	}
	for _, mem := range pool.Members {
		mem := mem
		if bytes, _ := heapPerCall(3, func() { step(a, mem.Widths) }); bytes > 2<<20 {
			t.Errorf("%s: a further step allocates %d bytes; its buffers are not the arena's slab", mem.Name(), bytes)
		}
	}
}
