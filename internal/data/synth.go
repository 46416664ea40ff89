package data

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/tensor"
)

// SynthConfig parameterises a synthetic class-conditional dataset.
type SynthConfig struct {
	Name       string
	Classes    int
	Channels   int
	Size       int // square resolution
	Train      int // training samples
	Test       int // test samples
	Noise      float64
	MaxShift   int // random translation range (pixels)
	Superclass int // classes per shared superclass prototype (0 = none)
	// Confusion is the fraction of samples rendered from a uniformly
	// random class prototype while keeping their nominal label — the
	// irreducible ambiguity that caps achievable accuracy at roughly
	// 1 − Confusion·(1 − 1/Classes), mirroring each real dataset's
	// difficulty (e.g. ~0.80 for CIFAR-10, ~0.41 for CIFAR-100).
	Confusion float64
	Seed      int64
}

// CIFAR10Like mirrors CIFAR-10's shape: 3×32×32, 10 classes.
func CIFAR10Like(train, test int, seed int64) SynthConfig {
	return SynthConfig{Name: "cifar10", Classes: 10, Channels: 3, Size: 32,
		Train: train, Test: test, Noise: 1.0, MaxShift: 2, Confusion: 0.22, Seed: seed}
}

// CIFAR100Like mirrors CIFAR-100: 3×32×32, 100 classes grouped into
// 20 superclasses of 5, which makes classes confusable the way CIFAR-100's
// fine labels are and keeps its accuracy well below CIFAR-10's.
func CIFAR100Like(train, test int, seed int64) SynthConfig {
	return SynthConfig{Name: "cifar100", Classes: 100, Channels: 3, Size: 32,
		Train: train, Test: test, Noise: 1.0, MaxShift: 2, Superclass: 5, Confusion: 0.55, Seed: seed}
}

// FEMNISTLike mirrors FEMNIST's shape after the usual resize: 1×32×32 and
// 62 character classes (paper pipelines feed 28×28 digits into 32×32
// networks). Writer styles are added by GenerateFederatedWriters.
func FEMNISTLike(train, test int, seed int64) SynthConfig {
	return SynthConfig{Name: "femnist", Classes: 62, Channels: 1, Size: 32,
		Train: train, Test: test, Noise: 0.8, MaxShift: 2, Confusion: 0.15, Seed: seed}
}

// WidarLike mirrors the Widar gesture-sensing tensors used on the paper's
// test bed: 1×20×20 inputs and 22 gesture classes.
func WidarLike(train, test int, seed int64) SynthConfig {
	return SynthConfig{Name: "widar", Classes: 22, Channels: 1, Size: 20,
		Train: train, Test: test, Noise: 0.8, MaxShift: 1, Confusion: 0.48, Seed: seed}
}

// prototypes builds one smooth random pattern per class by upsampling a
// coarse random grid; classes within a superclass share the coarse base
// and differ by a smaller delta, so they are genuinely confusable.
func prototypes(rng *rand.Rand, cfg SynthConfig) []*tensor.Tensor {
	protos := make([]*tensor.Tensor, cfg.Classes)
	var base *tensor.Tensor
	for c := 0; c < cfg.Classes; c++ {
		if cfg.Superclass > 0 {
			if c%cfg.Superclass == 0 {
				base = smoothPattern(rng, cfg.Channels, cfg.Size, 1.0)
			}
			delta := smoothPattern(rng, cfg.Channels, cfg.Size, 0.6)
			p := base.Clone()
			p.AddInPlace(delta)
			protos[c] = p
			continue
		}
		protos[c] = smoothPattern(rng, cfg.Channels, cfg.Size, 1.0)
	}
	return protos
}

// smoothPattern draws a 4×4 coarse grid per channel and bilinearly
// upsamples it, yielding low-frequency structure like natural images.
func smoothPattern(rng *rand.Rand, channels, size int, scale float64) *tensor.Tensor {
	const coarse = 4
	out := tensor.New(channels, size, size)
	for ch := 0; ch < channels; ch++ {
		grid := make([]float64, coarse*coarse)
		for i := range grid {
			grid[i] = rng.NormFloat64() * scale
		}
		for y := 0; y < size; y++ {
			fy := float64(y) / float64(size-1) * float64(coarse-1)
			y0 := int(fy)
			y1 := y0 + 1
			if y1 >= coarse {
				y1 = coarse - 1
			}
			wy := fy - float64(y0)
			for x := 0; x < size; x++ {
				fx := float64(x) / float64(size-1) * float64(coarse-1)
				x0 := int(fx)
				x1 := x0 + 1
				if x1 >= coarse {
					x1 = coarse - 1
				}
				wx := fx - float64(x0)
				v := (1-wy)*((1-wx)*grid[y0*coarse+x0]+wx*grid[y0*coarse+x1]) +
					wy*((1-wx)*grid[y1*coarse+x0]+wx*grid[y1*coarse+x1])
				out.Set(v, ch, y, x)
			}
		}
	}
	return out
}

// sampleInto writes one noisy, shifted copy of proto into dst (a [C,H,W]
// window), optionally applying an affine style (gain, offset).
func sampleInto(rng *rand.Rand, dst []float64, proto *tensor.Tensor, cfg SynthConfig, gain, offset float64) {
	c, h, w := proto.Shape[0], proto.Shape[1], proto.Shape[2]
	dy := 0
	dx := 0
	if cfg.MaxShift > 0 {
		dy = rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		dx = rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
	}
	i := 0
	for ch := 0; ch < c; ch++ {
		plane := proto.Data[ch*h*w : (ch+1)*h*w]
		for y := 0; y < h; y++ {
			sy := y + dy
			for x := 0; x < w; x++ {
				sx := x + dx
				v := 0.0
				if sy >= 0 && sy < h && sx >= 0 && sx < w {
					v = plane[sy*w+sx]
				}
				dst[i] = gain*v + offset + cfg.Noise*rng.NormFloat64()
				i++
			}
		}
	}
}

// pickProto returns class c's prototype, or — with probability
// cfg.Confusion — a uniformly random one (irreducible label ambiguity).
func pickProto(rng *rand.Rand, protos []*tensor.Tensor, cfg SynthConfig, c int) *tensor.Tensor {
	if cfg.Confusion > 0 && rng.Float64() < cfg.Confusion {
		return protos[rng.Intn(len(protos))]
	}
	return protos[c]
}

// Generate builds a train/test pair with balanced class membership.
func Generate(cfg SynthConfig) (train, test *Dataset) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := prototypes(rng, cfg)
	make1 := func(n int) *Dataset {
		d := &Dataset{
			X:          tensor.New(n, cfg.Channels, cfg.Size, cfg.Size),
			Labels:     make([]int, n),
			NumClasses: cfg.Classes,
		}
		sz := cfg.Channels * cfg.Size * cfg.Size
		for i := 0; i < n; i++ {
			c := i % cfg.Classes
			d.Labels[i] = c
			sampleInto(rng, d.X.Data[i*sz:(i+1)*sz], pickProto(rng, protos, cfg, c), cfg, 1, 0)
		}
		return d
	}
	return make1(cfg.Train), make1(cfg.Test)
}

// WriterConfig controls GenerateFederatedWriters.
type WriterConfig struct {
	Writers          int // one client per writer
	SamplesPerWriter int
	ClassesPerWriter int // subset of classes each writer produces
	StyleGain        float64
	StyleOffset      float64
}

// GenerateFederatedWriters builds a naturally non-IID federation in the
// FEMNIST/Widar mould: each writer (client) has a private affine style and
// covers only a subset of classes. The returned test set is style-free.
func GenerateFederatedWriters(cfg SynthConfig, wcfg WriterConfig) (clients []*Dataset, test *Dataset, err error) {
	if wcfg.Writers < 1 || wcfg.SamplesPerWriter < 1 {
		return nil, nil, fmt.Errorf("data: writer config needs positive Writers and SamplesPerWriter, got %+v", wcfg)
	}
	if wcfg.ClassesPerWriter < 1 || wcfg.ClassesPerWriter > cfg.Classes {
		return nil, nil, fmt.Errorf("data: ClassesPerWriter %d outside [1,%d]", wcfg.ClassesPerWriter, cfg.Classes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := prototypes(rng, cfg)
	sz := cfg.Channels * cfg.Size * cfg.Size
	clients = make([]*Dataset, wcfg.Writers)
	for wtr := 0; wtr < wcfg.Writers; wtr++ {
		gain := 1 + wcfg.StyleGain*rng.NormFloat64()
		offset := wcfg.StyleOffset * rng.NormFloat64()
		classes := rng.Perm(cfg.Classes)[:wcfg.ClassesPerWriter]
		d := &Dataset{
			X:          tensor.New(wcfg.SamplesPerWriter, cfg.Channels, cfg.Size, cfg.Size),
			Labels:     make([]int, wcfg.SamplesPerWriter),
			NumClasses: cfg.Classes,
		}
		for i := 0; i < wcfg.SamplesPerWriter; i++ {
			c := classes[i%len(classes)]
			d.Labels[i] = c
			sampleInto(rng, d.X.Data[i*sz:(i+1)*sz], pickProto(rng, protos, cfg, c), cfg, gain, offset)
		}
		clients[wtr] = d
	}
	test = &Dataset{
		X:          tensor.New(cfg.Test, cfg.Channels, cfg.Size, cfg.Size),
		Labels:     make([]int, cfg.Test),
		NumClasses: cfg.Classes,
	}
	for i := 0; i < cfg.Test; i++ {
		c := i % cfg.Classes
		test.Labels[i] = c
		sampleInto(rng, test.X.Data[i*sz:(i+1)*sz], pickProto(rng, protos, cfg, c), cfg, 1, 0)
	}
	return clients, test, nil
}
