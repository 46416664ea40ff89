package data

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/tensor"
)

// refSampleInto is sampleInto as it stood while it read the prototype
// through tensor.At, frozen so the plane-indexed version stays pinned to
// its bits. Do not edit it to follow sampleInto.
func refSampleInto(rng *rand.Rand, dst []float64, proto *tensor.Tensor, cfg SynthConfig, gain, offset float64) {
	c, h, w := proto.Shape[0], proto.Shape[1], proto.Shape[2]
	dy := 0
	dx := 0
	if cfg.MaxShift > 0 {
		dy = rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		dx = rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
	}
	i := 0
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			sy := y + dy
			for x := 0; x < w; x++ {
				sx := x + dx
				v := 0.0
				if sy >= 0 && sy < h && sx >= 0 && sx < w {
					v = proto.At(ch, sy, sx)
				}
				dst[i] = gain*v + offset + cfg.Noise*rng.NormFloat64()
				i++
			}
		}
	}
}

// refShard is WriterSampler.Shard over refSampleInto.
func refShard(ws *WriterSampler, seed int64, samples, classesPer int, styleGain, styleOffset float64) *Dataset {
	cfg := ws.cfg
	rng := rand.New(rand.NewSource(seed))
	gain := 1 + styleGain*rng.NormFloat64()
	offset := styleOffset * rng.NormFloat64()
	classes := rng.Perm(cfg.Classes)[:classesPer]
	d := &Dataset{X: tensor.New(samples, cfg.Channels, cfg.Size, cfg.Size), Labels: make([]int, samples)}
	sz := cfg.Channels * cfg.Size * cfg.Size
	for i := 0; i < samples; i++ {
		c := classes[i%len(classes)]
		d.Labels[i] = c
		refSampleInto(rng, d.X.Data[i*sz:(i+1)*sz], pickProto(rng, ws.protos, cfg, c), cfg, gain, offset)
	}
	return d
}

// refGenerate is Generate over refSampleInto.
func refGenerate(cfg SynthConfig) (train, test *Dataset) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := prototypes(rng, cfg)
	make1 := func(n int) *Dataset {
		d := &Dataset{X: tensor.New(n, cfg.Channels, cfg.Size, cfg.Size), Labels: make([]int, n)}
		sz := cfg.Channels * cfg.Size * cfg.Size
		for i := 0; i < n; i++ {
			c := i % cfg.Classes
			d.Labels[i] = c
			refSampleInto(rng, d.X.Data[i*sz:(i+1)*sz], pickProto(rng, protos, cfg, c), cfg, 1, 0)
		}
		return d
	}
	return make1(cfg.Train), make1(cfg.Test)
}

// sameData fails the test at the first label or value bit in which got
// differs from want.
func sameData(t *testing.T, what string, got, want *Dataset) {
	t.Helper()
	if len(got.Labels) != len(want.Labels) || len(got.X.Data) != len(want.X.Data) {
		t.Fatalf("%s: %d labels / %d values, want %d / %d", what, len(got.Labels), len(got.X.Data), len(want.Labels), len(want.X.Data))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: label %d is %d, want %d", what, i, got.Labels[i], want.Labels[i])
		}
	}
	for i := range want.X.Data {
		if math.Float64bits(got.X.Data[i]) != math.Float64bits(want.X.Data[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got.X.Data[i], want.X.Data[i])
		}
	}
}

// samplerConfigs are the widar and cifar10 shapes, and a small plane
// whose shift range reaches past every edge.
func samplerConfigs() []SynthConfig {
	edge := SynthConfig{Name: "edge", Classes: 5, Channels: 2, Size: 5, Train: 40, Test: 10,
		Noise: 0.5, MaxShift: 6, Confusion: 0.3, Seed: 9}
	return []SynthConfig{WidarLike(66, 22, 3), CIFAR10Like(30, 10, 4), edge}
}

func TestWriterSamplerMatchesReference(t *testing.T) {
	for _, cfg := range samplerConfigs() {
		ws, err := NewWriterSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		classes := max(cfg.Classes/3, 2)
		for seed := int64(1); seed <= 4; seed++ {
			got, err := ws.Shard(seed, 20, classes, 0.15, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			sameData(t, cfg.Name+" shard", got, refShard(ws, seed, 20, classes, 0.15, 0.15))
		}
		train, test := Generate(cfg)
		refTrain, refTest := refGenerate(cfg)
		sameData(t, cfg.Name+" train", train, refTrain)
		sameData(t, cfg.Name+" test", test, refTest)
	}
}

// TestSampleIntoShiftsAtEdges drives sampleInto through every shift of a
// 5×5 plane from −6 to +6 on both axes — fully off the plane, flush with
// each edge and overlapping it — and checks each sample against the
// reference.
func TestSampleIntoShiftsAtEdges(t *testing.T) {
	cfg := samplerConfigs()[2]
	proto := smoothPattern(rand.New(rand.NewSource(1)), cfg.Channels, cfg.Size, 1)
	span := 2*cfg.MaxShift + 1
	seen := map[[2]int]bool{}
	got := make([]float64, cfg.Channels*cfg.Size*cfg.Size)
	want := make([]float64, len(got))
	for seed := int64(0); len(seen) < span*span; seed++ {
		if seed == 10_000 {
			t.Fatalf("10000 seeds reached %d of %d shifts", len(seen), span*span)
		}
		shifts := rand.New(rand.NewSource(seed))
		seen[[2]int{shifts.Intn(span), shifts.Intn(span)}] = true
		sampleInto(rand.New(rand.NewSource(seed)), got, proto, cfg, 1.25, -0.5)
		refSampleInto(rand.New(rand.NewSource(seed)), want, proto, cfg, 1.25, -0.5)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: value %d is %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestWriterSamplerOrderIndependent pins the lazy population's premise:
// shard w has the same bytes whether it is cut first or after others.
func TestWriterSamplerOrderIndependent(t *testing.T) {
	for _, cfg := range samplerConfigs()[:2] {
		first, err := NewWriterSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := first.Shard(77, 12, 3, 0.15, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		later, err := NewWriterSampler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(70); seed < 77; seed++ {
			if _, err := later.Shard(seed, 12, 3, 0.15, 0.15); err != nil {
				t.Fatal(err)
			}
		}
		got, err := later.Shard(77, 12, 3, 0.15, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		sameData(t, cfg.Name+" shard cut after others", got, want)
		again, err := first.Shard(77, 12, 3, 0.15, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		sameData(t, cfg.Name+" shard cut again", again, want)
	}
}
