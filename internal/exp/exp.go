// Package exp assembles the paper's experiments: it builds federations
// (dataset + partition + device population), constructs the algorithm
// runners, and provides one function per table/figure of the evaluation
// section. cmd/flbench and the repository benchmarks are thin wrappers
// around this package.
package exp

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/prune"
)

// Scale fixes the fidelity of a run. Paper-faithful structure is kept at
// every scale (population, participation rate, device mix); what shrinks
// is width, sample counts and rounds so a CPU can finish the suite.
type Scale struct {
	Name             string
	Clients          int
	K                int // clients selected per round
	Rounds           int
	EvalEvery        int
	SamplesPerClient int
	TestSamples      int
	WidthScale       float64
	LocalEpochs      int
	BatchSize        int
	LR               float64
	Momentum         float64
	Parallelism      int
	Seed             int64
	// Codec names the wire codec the AdaptiveFL server moves models
	// through ("raw", "f32", "q8", "delta" — see internal/wire). Empty
	// keeps the exact in-memory float64 path.
	Codec string
	// Sched names the aggregation policy the AdaptiveFL server runs under
	// ("sync", "deadline", "semiasync" — see internal/sched). Empty keeps
	// the legacy synchronous Round loop; any policy drives training
	// through the event-driven engine on the Table 5 cost model, with each
	// Runner.Round advancing one aggregation.
	Sched string
	// Trace names the availability trace for scheduled runs (see
	// sched.ParseTrace: "always", "straggler:…", "churn:…"). Empty means
	// every client is always available at nominal speed.
	Trace string
	// Agg names the server-side aggregation policy ("trim:frac=0.25",
	// "krum:frac=0.3,m=2", "clip:tau=5+trim", … — see agg.ParsePolicy).
	// Empty keeps the exact weighted prefix mean.
	Agg string
	// Adversary describes a Byzantine sub-population
	// (core.ParseAdversary: "signflip:frac=0.3", "mix:…"); it is the one
	// way to name an adversary, for flat, scheduled and population runs
	// alike. The adversary seed is derived from Seed, so two same-seed runs
	// realize the identical attacker set.
	Adversary string
	// Trainer, when set, overrides how AdaptiveFL dispatches execute —
	// cmd/adaptivefl wires a fednet.Cluster's HTTPTrainer here for real
	// loopback transport. The transport then owns the wire encoding, so
	// Codec is not also applied in-process.
	Trainer core.Trainer
	// Observer, when set, attaches the observability layer: every flight,
	// commit and LRU event emits an obs.Span, the wire codec (if any) is
	// wrapped with wall-clock timing, and the observer's metrics registry
	// fills for a /metrics scrape. Nil is the zero-cost disabled state; an
	// attached observer never perturbs the run (see internal/obs).
	Observer *obs.Observer
}

// QuickScale finishes an experiment in tens of seconds; used by the
// benchmarks and smoke runs.
func QuickScale() Scale {
	return Scale{
		Name: "quick", Clients: 20, K: 5, Rounds: 16, EvalEvery: 4,
		SamplesPerClient: 20, TestSamples: 200, WidthScale: 0.10,
		LocalEpochs: 1, BatchSize: 10, LR: 0.10, Momentum: 0.5,
		Parallelism: 5, Seed: 1,
	}
}

// SmallScale is the default for regenerating the tables: large enough for
// the paper's orderings to emerge, small enough for a CPU suite run.
func SmallScale() Scale {
	return Scale{
		Name: "small", Clients: 50, K: 10, Rounds: 40, EvalEvery: 5,
		SamplesPerClient: 30, TestSamples: 400, WidthScale: 0.125,
		LocalEpochs: 2, BatchSize: 15, LR: 0.08, Momentum: 0.5,
		Parallelism: 10, Seed: 1,
	}
}

// PaperScale mirrors the paper's setup (100 clients, 10% participation,
// batch 50, 5 local epochs, lr 0.01, full-width models). Running it needs
// GPU-class time on this pure-Go substrate; it exists so the
// configuration itself is executable documentation.
func PaperScale() Scale {
	return Scale{
		Name: "paper", Clients: 100, K: 10, Rounds: 1000, EvalEvery: 20,
		SamplesPerClient: 500, TestSamples: 10000, WidthScale: 1.0,
		LocalEpochs: 5, BatchSize: 50, LR: 0.01, Momentum: 0.5,
		Parallelism: 10, Seed: 1,
	}
}

// Dist names a data distribution setting from Table 2.
type Dist string

// The paper's distribution settings.
const (
	IID     Dist = "iid"
	Dir06   Dist = "dir0.6"
	Dir03   Dist = "dir0.3"
	Natural Dist = "natural" // FEMNIST/Widar per-writer split
)

// Federation is a ready-to-run client population with its test set.
type Federation struct {
	Clients []*core.Client
	Test    *data.Dataset
	Model   models.Config
	Pool    *prune.Pool
}

// SampleBoost scales per-client sample counts for many-class datasets so
// reduced-scale runs keep a workable number of samples per class (CIFAR-10
// at 30 samples/client is 150/class over 50 clients; CIFAR-100 at the same
// setting would get 15/class — too few to rise above chance).
func SampleBoost(name string) int {
	switch name {
	case "cifar100":
		return 3
	case "femnist":
		return 2
	case "widar":
		return 4
	}
	return 1
}

// DatasetConfig returns the synthetic stand-in for a paper dataset name.
func DatasetConfig(name string, sc Scale) (data.SynthConfig, error) {
	total := sc.Clients * sc.SamplesPerClient * SampleBoost(name)
	switch name {
	case "cifar10":
		return data.CIFAR10Like(total, sc.TestSamples, sc.Seed), nil
	case "cifar100":
		return data.CIFAR100Like(total, sc.TestSamples, sc.Seed), nil
	case "femnist":
		return data.FEMNISTLike(total, sc.TestSamples, sc.Seed), nil
	case "widar":
		return data.WidarLike(total, sc.TestSamples, sc.Seed), nil
	}
	return data.SynthConfig{}, fmt.Errorf("exp: unknown dataset %q", name)
}

// ModelConfig builds the models.Config for an architecture at this scale,
// matched to the dataset's shape.
func ModelConfig(arch models.Arch, dataset string, sc Scale) (models.Config, error) {
	dcfg, err := DatasetConfig(dataset, sc)
	if err != nil {
		return models.Config{}, err
	}
	return models.Config{
		Arch:       arch,
		NumClasses: dcfg.Classes,
		InChannels: dcfg.Channels,
		InputSize:  dcfg.Size,
		WidthScale: sc.WidthScale,
		Seed:       sc.Seed,
	}, nil
}

// BuildFederation assembles clients (data shard + device) and the test
// set for one experiment cell.
func BuildFederation(arch models.Arch, dataset string, dist Dist, proportions [3]float64, sc Scale) (*Federation, error) {
	mcfg, err := ModelConfig(arch, dataset, sc)
	if err != nil {
		return nil, err
	}
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sc.Seed + 77))
	devices := core.NewPopulation(rng, sc.Clients, proportions, pool, core.DefaultDeviceModel())

	var shards []*data.Dataset
	var test *data.Dataset
	if dist == Natural {
		dcfg, err := DatasetConfig(dataset, sc)
		if err != nil {
			return nil, err
		}
		classesPer := dcfg.Classes / 3
		if classesPer < 2 {
			classesPer = 2
		}
		shards, test, err = data.GenerateFederatedWriters(dcfg, data.WriterConfig{
			Writers:          sc.Clients,
			SamplesPerWriter: sc.SamplesPerClient * SampleBoost(dataset),
			ClassesPerWriter: classesPer,
			StyleGain:        0.15,
			StyleOffset:      0.15,
		})
		if err != nil {
			return nil, err
		}
	} else {
		dcfg, err := DatasetConfig(dataset, sc)
		if err != nil {
			return nil, err
		}
		var train *data.Dataset
		train, test = data.Generate(dcfg)
		var parts [][]int
		switch dist {
		case IID:
			parts = data.PartitionIID(rng, train.Len(), sc.Clients)
		case Dir06:
			parts = data.PartitionDirichlet(rng, train.Labels, train.NumClasses, sc.Clients, 0.6)
		case Dir03:
			parts = data.PartitionDirichlet(rng, train.Labels, train.NumClasses, sc.Clients, 0.3)
		default:
			return nil, fmt.Errorf("exp: unknown distribution %q", dist)
		}
		shards = make([]*data.Dataset, sc.Clients)
		for i, p := range parts {
			shards[i] = train.Subset(p)
		}
	}
	clients := make([]*core.Client, sc.Clients)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: shards[i], Device: devices[i]}
	}
	return &Federation{Clients: clients, Test: test, Model: mcfg, Pool: pool}, nil
}

// SplitAdversary returns the scale's trace spec, unchanged, and its
// parsed Scale.Adversary (zero when empty), its Seed already derived from
// Scale.Seed (the same offset ParseTrace uses, so a (Seed, spec) pair
// fixes the attacker set bit-reproducibly on every path).
func (sc Scale) SplitAdversary() (string, core.AdversarySpec, error) {
	adv, err := core.ParseAdversary(sc.Adversary)
	if err != nil {
		return "", core.AdversarySpec{}, err
	}
	adv.Seed = sc.Seed + 909
	return sc.Trace, adv, nil
}

// TrainConfig converts a Scale into local-training hyperparameters.
func (sc Scale) TrainConfig() core.TrainConfig {
	return core.TrainConfig{
		LocalEpochs: sc.LocalEpochs, BatchSize: sc.BatchSize,
		LR: sc.LR, Momentum: sc.Momentum,
	}
}

// ScaleByName resolves quick/small/paper.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return QuickScale(), nil
	case "small":
		return SmallScale(), nil
	case "paper":
		return PaperScale(), nil
	}
	return Scale{}, fmt.Errorf("exp: unknown scale %q (quick|small|paper)", name)
}
