package data

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/tensor"
)

// WriterSampler generates per-writer shards on demand, for populations too
// large to materialise every client's data up front. It differs from
// GenerateFederatedWriters in one structural way: that generator threads a
// single sequential rng through every writer (so writer w's shard depends
// on having generated writers 0..w−1 — cheap for hundreds of clients, and
// frozen for bit-compatibility), while the sampler derives each shard from
// an independent per-writer seed, so shard w is the same bytes whether it
// is the first ever generated or regenerated after an LRU eviction. The
// class prototype bank is built once from the dataset seed and shared
// read-only across shards.
type WriterSampler struct {
	cfg    SynthConfig
	protos []*tensor.Tensor
}

// NewWriterSampler builds the shared prototype bank from cfg.Seed.
func NewWriterSampler(cfg SynthConfig) (*WriterSampler, error) {
	if cfg.Classes < 1 || cfg.Channels < 1 || cfg.Size < 1 {
		return nil, fmt.Errorf("data: sampler config needs positive Classes/Channels/Size, got %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &WriterSampler{cfg: cfg, protos: prototypes(rng, cfg)}, nil
}

// Shard generates one writer's dataset from the writer's own seed: a
// private affine style (gain, offset), a class subset of classesPer
// classes, and samples noisy shifted prototype copies — the same non-IID
// shape GenerateFederatedWriters produces, minus the cross-writer rng
// coupling. Deterministic in (sampler seed, seed, parameters).
func (ws *WriterSampler) Shard(seed int64, samples, classesPer int, styleGain, styleOffset float64) (*Dataset, error) {
	cfg := ws.cfg
	if samples < 1 {
		return nil, fmt.Errorf("data: shard needs positive samples, got %d", samples)
	}
	if classesPer < 1 || classesPer > cfg.Classes {
		return nil, fmt.Errorf("data: shard classes %d outside [1,%d]", classesPer, cfg.Classes)
	}
	rng := rand.New(rand.NewSource(seed))
	gain := 1 + styleGain*rng.NormFloat64()
	offset := styleOffset * rng.NormFloat64()
	classes := rng.Perm(cfg.Classes)[:classesPer]
	d := &Dataset{
		X:          tensor.New(samples, cfg.Channels, cfg.Size, cfg.Size),
		Labels:     make([]int, samples),
		NumClasses: cfg.Classes,
	}
	sz := cfg.Channels * cfg.Size * cfg.Size
	for i := 0; i < samples; i++ {
		c := classes[i%len(classes)]
		d.Labels[i] = c
		sampleInto(rng, d.X.Data[i*sz:(i+1)*sz], pickProto(rng, ws.protos, cfg, c), cfg, gain, offset)
	}
	return d, nil
}
