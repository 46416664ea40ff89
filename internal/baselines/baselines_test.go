package baselines

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/tensor"
	"adaptivefl/internal/testbed"
)

func testModelCfg() models.Config {
	return models.Config{Arch: models.VGG16, NumClasses: 4, WidthScale: 0.07, Seed: 3}
}

func testSetup(t *testing.T, n int) (Setup, *prune.Pool, *data.Dataset) {
	t.Helper()
	mcfg := testModelCfg()
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32,
		Train: n * 20, Test: 60, Noise: 0.3, MaxShift: 1, Seed: 21}
	train, test := data.Generate(dcfg)
	rng := rand.New(rand.NewSource(22))
	parts := data.PartitionIID(rng, train.Len(), n)
	devices := core.NewPopulation(rng, n, [3]float64{4, 3, 3}, pool, core.DefaultDeviceModel())
	clients := make([]*core.Client, n)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}
	return Setup{
		Model: mcfg, Clients: clients, K: 3, Seed: 23,
		Train: core.TrainConfig{LocalEpochs: 1, BatchSize: 10, LR: 0.05, Momentum: 0.5},
	}, pool, test
}

func changed(before, after nn.State) bool {
	for name, v := range after {
		for i := range v.Data {
			if v.Data[i] != before[name].Data[i] {
				return true
			}
		}
	}
	return false
}

func TestAllLargeRoundAndEvaluate(t *testing.T) {
	setup, _, test := testSetup(t, 6)
	a, err := NewAllLarge(setup)
	if err != nil {
		t.Fatal(err)
	}
	before := a.globals[0].Clone()
	if err := a.Round(); err != nil {
		t.Fatal(err)
	}
	if !changed(before, a.globals[0]) {
		t.Fatal("All-Large round did not change the global model")
	}
	acc, err := a.Evaluate(test, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := acc["full"]; !ok {
		t.Fatal("All-Large must report full accuracy")
	}
	if _, ok := acc["S1"]; ok {
		t.Fatal("All-Large has no submodels")
	}
}

func TestDecoupledLevelsIsolated(t *testing.T) {
	setup, pool, test := testSetup(t, 8)
	d, err := NewDecoupled(setup, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Round(); err != nil {
		t.Fatal(err)
	}
	acc, err := d.Evaluate(test, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"S1", "M1", "L1", "full"} {
		if _, ok := acc[key]; !ok {
			t.Fatalf("Decoupled missing %s accuracy", key)
		}
	}
	if acc["full"] != acc["L1"] {
		t.Fatal("Decoupled full must be the L1 model")
	}
}

func TestDecoupledAssignsByClass(t *testing.T) {
	setup, pool, _ := testSetup(t, 4)
	d, err := NewDecoupled(setup, pool)
	if err != nil {
		t.Fatal(err)
	}
	if d.levels[core.Strong].global != 2 || d.levels[core.Medium].global != 1 || d.levels[core.Weak].global != 0 {
		t.Fatal("class->level mapping wrong")
	}
}

func TestHeteroFLNestedSizes(t *testing.T) {
	setup, _, _ := testSetup(t, 6)
	if _, err := NewHeteroFL(setup); err != nil {
		t.Fatal(err)
	}
	// Width rates sqrt(0.25), sqrt(0.5), 1 should give ~0.25/0.5/1.0
	// parameter ratios at paper scale.
	fullCfg := models.Config{Arch: models.VGG16, NumClasses: 10}
	spec := fullCfg.Spec()
	fullSize := models.CountStats(fullCfg, nil).Params
	for i, want := range []float64{0.25, 0.5} {
		widths := prune.PlanWidths(spec.FullWidths, heteroFLRates[i], 0)
		size := models.CountStats(fullCfg, widths).Params
		ratio := float64(size) / float64(fullSize)
		if ratio < want-0.05 || ratio > want+0.05 {
			t.Errorf("HeteroFL rate %.3f gives size ratio %.3f, want ~%.2f", heteroFLRates[i], ratio, want)
		}
	}
}

func TestHeteroFLRoundAndEvaluate(t *testing.T) {
	setup, _, test := testSetup(t, 6)
	h, err := NewHeteroFL(setup)
	if err != nil {
		t.Fatal(err)
	}
	before := h.globals[0].Clone()
	if err := h.Round(); err != nil {
		t.Fatal(err)
	}
	if !changed(before, h.globals[0]) {
		t.Fatal("HeteroFL round did not change the global model")
	}
	acc, err := h.Evaluate(test, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"S1", "M1", "L1", "full"} {
		if _, ok := acc[key]; !ok {
			t.Fatalf("HeteroFL missing %s accuracy", key)
		}
	}
}

func TestScaleFLMultiExitGradients(t *testing.T) {
	// The multi-exit wrapper must backpropagate correctly: train a tiny
	// 3-exit net on separable data and expect every exit to learn.
	setup, _, _ := testSetup(t, 6)
	sf, err := NewScaleFL(setup)
	if err != nil {
		t.Fatal(err)
	}
	me, err := buildNet(setup.Model, sf.levels[core.Strong])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	n := 24
	x := tensor.Randn(rng, 1, n, 3, 32, 32)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 4
		// Inject a strong class-dependent mean so the task is learnable.
		for j := 0; j < 3*32*32; j++ {
			x.Data[i*3*32*32+j] += float64(labels[i]) * 0.5
		}
	}
	wrapper := multiExitLayer{me}
	opt := nn.NewSGD(0.05, 0.5, 0)
	var first, last float64
	for step := 0; step < 15; step++ {
		nn.ZeroGrads(wrapper)
		outs := me.forwardAll(x, true)
		grads := make([]*tensor.Tensor, len(outs))
		total := 0.0
		for i, logits := range outs {
			loss, g := nn.CrossEntropy(logits, labels)
			total += loss
			grads[i] = g
		}
		me.backwardAll(grads)
		opt.Step(wrapper.Params())
		if step == 0 {
			first = total
		}
		last = total
	}
	if last >= first*0.8 {
		t.Fatalf("multi-exit training did not reduce loss: %.4f -> %.4f", first, last)
	}
}

func TestScaleFLRoundAndEvaluate(t *testing.T) {
	setup, _, test := testSetup(t, 6)
	sf, err := NewScaleFL(setup)
	if err != nil {
		t.Fatal(err)
	}
	before := sf.globals[0].Clone()
	if err := sf.Round(); err != nil {
		t.Fatal(err)
	}
	if !changed(before, sf.globals[0]) {
		t.Fatal("ScaleFL round did not change the global model")
	}
	acc, err := sf.Evaluate(test, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"S1", "M1", "L1", "full"} {
		if _, ok := acc[key]; !ok {
			t.Fatalf("ScaleFL missing %s accuracy", key)
		}
	}
}

func TestScaleFLGlobalIncludesExitHeads(t *testing.T) {
	setup, _, _ := testSetup(t, 6)
	sf, err := NewScaleFL(setup)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"exit1.fc.weight", "exit2.fc.weight"} {
		if _, ok := sf.globals[0][name]; !ok {
			t.Fatalf("ScaleFL global missing %s", name)
		}
	}
}

// newAdaptive builds an AdaptiveFL runner on the sync engine, priced on
// the Table 5 platform.
func newAdaptive(t *testing.T, setup Setup) *Adaptive {
	t.Helper()
	srv, err := core.NewServer(core.Config{
		Model: setup.Model, Pool: prune.Config{P: 3},
		ClientsPerRound: setup.K, Train: setup.Train, Seed: setup.Seed,
	}, setup.Clients)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sched.New(srv, sim, nil, sched.Config{Policy: sched.Sync, K: setup.K, Epochs: setup.Train.LocalEpochs})
	if err != nil {
		t.Fatal(err)
	}
	return &Adaptive{Srv: srv, Eng: eng, Label: "AdaptiveFL"}
}

func TestAdaptiveRunner(t *testing.T) {
	setup, _, test := testSetup(t, 6)
	a := newAdaptive(t, setup)
	if a.Name() != "AdaptiveFL" {
		t.Fatalf("Name = %s", a.Name())
	}
	if err := a.Round(); err != nil {
		t.Fatal(err)
	}
	acc, err := a.Evaluate(test, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"S1", "M1", "L1", "full"} {
		if _, ok := acc[key]; !ok {
			t.Fatalf("Adaptive missing %s accuracy", key)
		}
	}
	if w := a.Waste(); w < 0 || w > 1 {
		t.Fatalf("waste %v outside [0,1]", w)
	}
}

// TestAdaptiveEvaluateFullOnce: "full" and "L1" are the same weights at
// the same widths, so Evaluate runs that head once — and still returns,
// key for key and value for value, what evaluating all four heads
// separately (the previous behaviour) returns.
func TestAdaptiveEvaluateFullOnce(t *testing.T) {
	setup, _, test := testSetup(t, 6)
	a := newAdaptive(t, setup)
	if err := a.Round(); err != nil {
		t.Fatal(err)
	}
	got, err := a.Evaluate(test, 30)
	if err != nil {
		t.Fatal(err)
	}

	full, err := a.Srv.GlobalModel()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"full": eval.Accuracy(full, test, 30)}
	for _, name := range []string{"S1", "M1", "L1"} {
		m, err := a.Srv.SubmodelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = eval.Accuracy(m, test, 30)
	}
	if len(got) != len(want) {
		t.Fatalf("Evaluate returned %v, want %v", got, want)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Fatalf("Evaluate[%q] = %v (present %v), want %v", k, g, ok, v)
		}
	}

	// The shortcut is taken for the pool the server built, and only for a
	// pool whose L1 really is the unpruned model.
	pool := a.Srv.Pool()
	if !fullIsL1(pool, full.Widths) {
		t.Fatal("the built pool's largest member must be recognised as the full model")
	}
	narrower := append([]int(nil), full.Widths...)
	narrower[len(narrower)-1]--
	for name, p := range map[string]*prune.Pool{
		"largest is not L1":    {Members: []prune.Submodel{{Level: prune.LevelM, Sub: 1, Widths: full.Widths}}},
		"L1 is not full width": {Members: []prune.Submodel{{Level: prune.LevelL, Sub: 1, Widths: narrower}}},
	} {
		if fullIsL1(p, full.Widths) {
			t.Fatalf("%s: must evaluate L1 on its own", name)
		}
	}
}

func TestAvgOf(t *testing.T) {
	acc := map[string]float64{"S1": 0.2, "M1": 0.4, "L1": 0.6, "full": 0.9}
	if got := AvgOf(acc); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("AvgOf = %v, want 0.4", got)
	}
}

func TestSetupValidate(t *testing.T) {
	if _, err := NewAllLarge(Setup{}); err == nil {
		t.Fatal("empty setup accepted")
	}
	setup, _, _ := testSetup(t, 4)
	setup.K = 99
	if _, err := NewHeteroFL(setup); err == nil {
		t.Fatal("K > clients accepted")
	}
	// A zero batch size would make ScaleFL's local loop batch forever and
	// the other baselines fail only inside local training: every
	// constructor must refuse it.
	setup, pool, _ := testSetup(t, 4)
	setup.Train.BatchSize = 0
	for name, build := range map[string]func() (Runner, error){
		"All-Large": func() (Runner, error) { return NewAllLarge(setup) },
		"Decoupled": func() (Runner, error) { return NewDecoupled(setup, pool) },
		"HeteroFL":  func() (Runner, error) { return NewHeteroFL(setup) },
		"ScaleFL":   func() (Runner, error) { return NewScaleFL(setup) },
	} {
		if _, err := build(); err == nil {
			t.Fatalf("%s accepted BatchSize 0", name)
		}
	}
}
