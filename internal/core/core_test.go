package core

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/tensor"
)

func testModelCfg() models.Config {
	return models.Config{Arch: models.ResNet18, NumClasses: 4, WidthScale: 0.07, Seed: 3}
}

func testPool(t *testing.T) *prune.Pool {
	t.Helper()
	pool, err := prune.BuildPool(testModelCfg(), prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func testClients(t *testing.T, n int, pool *prune.Pool) ([]*Client, *data.Dataset) {
	t.Helper()
	cfg := data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32,
		Train: n * 24, Test: 80, Noise: 0.3, MaxShift: 1, Seed: 11}
	train, test := data.Generate(cfg)
	rng := rand.New(rand.NewSource(5))
	parts := data.PartitionIID(rng, train.Len(), n)
	devices := NewPopulation(rng, n, [3]float64{4, 3, 3}, pool, DefaultDeviceModel())
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = &Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}
	return clients, test
}

func quickTrain() TrainConfig {
	return TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.02, Momentum: 0.5}
}

func TestDeviceClassCapacities(t *testing.T) {
	pool := testPool(t)
	rng := rand.New(rand.NewSource(1))
	devices := NewPopulation(rng, 100, [3]float64{4, 3, 3}, pool, DefaultDeviceModel())
	counts := map[DeviceClass]int{}
	for _, d := range devices {
		counts[d.Class]++
	}
	if counts[Weak] != 40 || counts[Medium] != 30 || counts[Strong] != 30 {
		t.Fatalf("class mix %v, want 40/30/30", counts)
	}
	s, m, l := anchorSizes(pool)
	if !(s < m && m < l) {
		t.Fatalf("anchors not ordered: %d %d %d", s, m, l)
	}
	for _, d := range devices {
		cap := d.Capacity()
		switch d.Class {
		case Weak:
			if cap >= m {
				t.Fatalf("weak capacity %d can fit an M model (%d)", cap, m)
			}
		case Medium:
			if cap >= l {
				t.Fatalf("medium capacity %d can fit L1 (%d)", cap, l)
			}
			if cap < s {
				t.Fatalf("medium capacity %d below S anchor", cap)
			}
		case Strong:
			if cap < m {
				t.Fatalf("strong capacity %d below M anchor", cap)
			}
		}
	}
}

func TestDeviceCapacityJitters(t *testing.T) {
	d := &Device{Class: Weak, Base: 1000, Jitter: 0.2, rng: rand.New(rand.NewSource(2))}
	seen := map[int64]bool{}
	for i := 0; i < 20; i++ {
		c := d.Capacity()
		if c < 800 || c > 1200 {
			t.Fatalf("capacity %d outside jitter band", c)
		}
		seen[c] = true
	}
	if len(seen) < 10 {
		t.Fatal("capacity does not vary")
	}
	fixed := &Device{Base: 500}
	if fixed.Capacity() != 500 {
		t.Fatal("zero jitter must return base")
	}
}

func TestNewPopulationProportions(t *testing.T) {
	pool := testPool(t)
	rng := rand.New(rand.NewSource(3))
	for _, props := range [][3]float64{{8, 1, 1}, {1, 8, 1}, {1, 1, 8}} {
		devices := NewPopulation(rng, 50, props, pool, DefaultDeviceModel())
		counts := map[DeviceClass]int{}
		for _, d := range devices {
			counts[d.Class]++
		}
		dominant := Weak
		if props[1] == 8 {
			dominant = Medium
		} else if props[2] == 8 {
			dominant = Strong
		}
		if counts[dominant] != 40 {
			t.Fatalf("props %v: dominant class has %d devices, want 40", props, counts[dominant])
		}
	}
}

func TestNewServerValidation(t *testing.T) {
	pool := testPool(t)
	clients, _ := testClients(t, 4, pool)
	base := Config{Model: testModelCfg(), Pool: prune.Config{P: 3}, ClientsPerRound: 2, Train: quickTrain()}
	if _, err := NewServer(base, nil); err == nil {
		t.Fatal("expected error for no clients")
	}
	bad := base
	bad.ClientsPerRound = 9
	if _, err := NewServer(bad, clients); err == nil {
		t.Fatal("expected error for K > population")
	}
	bad = base
	bad.Train.BatchSize = 0
	if _, err := NewServer(bad, clients); err == nil {
		t.Fatal("expected error for bad train config")
	}
	if _, err := NewServer(base, clients); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestSubmodelByName(t *testing.T) {
	pool := testPool(t)
	clients, _ := testClients(t, 4, pool)
	srv, err := NewServer(Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3},
		ClientsPerRound: 2, Train: quickTrain(), Seed: 17,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"S1", "M1", "L1"} {
		m, err := srv.SubmodelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(18))
		y := m.Forward(tensor.Randn(rng, 1, 1, 3, 32, 32), false)
		if y.Shape[1] != 4 {
			t.Fatalf("%s output shape %v", name, y.Shape)
		}
	}
	if _, err := srv.SubmodelByName("Z9"); err == nil {
		t.Fatal("expected error for unknown submodel")
	}
}

func TestCommWasteRate(t *testing.T) {
	stats := []RoundStats{
		{SentParams: 100, ReturnedParams: 80},
		{SentParams: 100, ReturnedParams: 60},
	}
	if w := CommWasteRate(stats); math.Abs(w-0.3) > 1e-12 {
		t.Fatalf("waste = %v, want 0.3", w)
	}
	if w := CommWasteRate(nil); w != 0 {
		t.Fatalf("empty waste = %v", w)
	}
}

func TestTrainLocalRejectsBadConfig(t *testing.T) {
	if _, err := TrainLocal(testModelCfg(), nil, nil, nil, TrainConfig{}, nil); err == nil {
		t.Fatal("expected error for zero train config")
	}
}

// TestDevicePopulationDeterministic ensures NewPopulation is reproducible
// for a fixed rng seed.
func TestDevicePopulationDeterministic(t *testing.T) {
	pool := testPool(t)
	mk := func() []int64 {
		rng := rand.New(rand.NewSource(57))
		devices := NewPopulation(rng, 20, [3]float64{4, 3, 3}, pool, DefaultDeviceModel())
		out := make([]int64, len(devices))
		for i, d := range devices {
			out[i] = d.Base
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("population not deterministic")
		}
	}
}
