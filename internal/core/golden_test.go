package core

import (
	"math/rand"
	"runtime"
	"testing"

	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
)

// TestGoldenTrainingHashes pins the bits of one quick-scale local epoch
// (width scale 0.10, 20 samples, batch 10, lr 0.10, momentum 0.5) for each
// paper architecture, at full width and at the pool's smallest member.
// The constants were recorded before the fused and row-swept layer
// kernels replaced the loops they pin, and must never be edited: a kernel
// change that moves one of them changed the arithmetic, not just its
// speed. amd64 only: elsewhere the compiler may fuse x*y+z into one FMA,
// which rounds differently.
func TestGoldenTrainingHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded for amd64's unfused multiply-add")
	}
	cells := []struct {
		arch    models.Arch
		dataset data.SynthConfig
		full    uint64 // nn.HashState after one epoch at full width
		small   uint64 // … at the pool's smallest member
	}{
		{models.ResNet18, data.CIFAR10Like(20, 4, 1), 0xf2948ad192a545f2, 0xb45372e650c01305},
		{models.VGG16, data.CIFAR10Like(20, 4, 1), 0x33ae9bd3c2907f71, 0x38deda9803ab9cd4},
		{models.MobileNetV2, data.WidarLike(20, 4, 1), 0xb12512c615d3850f, 0x832f3f8048b9a676},
	}
	tc := TrainConfig{LocalEpochs: 1, BatchSize: 10, LR: 0.10, Momentum: 0.5}
	for _, c := range cells {
		mcfg := models.Config{Arch: c.arch, NumClasses: c.dataset.Classes, InChannels: c.dataset.Channels,
			InputSize: c.dataset.Size, WidthScale: 0.10, Seed: 1}
		pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
		if err != nil {
			t.Fatal(err)
		}
		global := nn.StateDict(models.MustBuild(mcfg, nil))
		train, _ := data.Generate(c.dataset)
		for _, run := range []struct {
			name   string
			widths []int
			want   uint64
		}{
			{"full", nil, c.full},
			{pool.Smallest().Name(), pool.Smallest().Widths, c.small},
		} {
			st, err := TrainLocal(mcfg, run.widths, global, train, tc, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			if got := nn.HashState(st); got != run.want {
				t.Errorf("%s %s: weights hash %016x, want %016x", c.arch, run.name, got, run.want)
			}
		}
	}
}

// TestGoldenTrainingHashesMobileNetCIFAR pins one quick-scale local epoch
// of MobileNetV2 on CIFAR-shaped data, with the training settings of
// TestGoldenTrainingHashes, at full width and at the pool's smallest
// member. Its Widar-shaped cell there trains the depthwise layers on 20,
// 10, 5 and 3 wide planes; this one reaches the 32, 16, 8 and 4 wide
// planes (stride 1 and 2) that the population workloads train on. The
// constants were recorded before the whole-plane and vectorised depthwise
// kernels, and must never be edited.
func TestGoldenTrainingHashesMobileNetCIFAR(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded for amd64's unfused multiply-add")
	}
	ds := data.CIFAR10Like(20, 4, 1)
	mcfg := models.Config{Arch: models.MobileNetV2, NumClasses: ds.Classes, InChannels: ds.Channels,
		InputSize: ds.Size, WidthScale: 0.10, Seed: 1}
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	global := nn.StateDict(models.MustBuild(mcfg, nil))
	train, _ := data.Generate(ds)
	tc := TrainConfig{LocalEpochs: 1, BatchSize: 10, LR: 0.10, Momentum: 0.5}
	for _, run := range []struct {
		name   string
		widths []int
		want   uint64
	}{
		{"full", nil, 0xaddfe0405771bd92},
		{pool.Smallest().Name(), pool.Smallest().Widths, 0xd4162f980007cb34},
	} {
		st, err := TrainLocal(mcfg, run.widths, global, train, tc, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if got := nn.HashState(st); got != run.want {
			t.Errorf("%s: weights hash %016x, want %016x", run.name, got, run.want)
		}
	}
}
