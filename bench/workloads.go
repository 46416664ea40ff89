package main

import (
	"fmt"
	"math"

	"adaptivefl/internal/baselines"
	"adaptivefl/internal/core"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/fednet"
	"adaptivefl/internal/models"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/wire"
)

// parallelism is pinned for every child: GOMAXPROCS, Scale.Parallelism and
// the traced run's worker count. The sizing box has 2 cores; bigger boxes
// pin 2 as well so numbers stay comparable.
const parallelism = 2

// workload is one benchmark cell. Windows are given at runSeconds and
// scale linearly with --seconds (window); an end-to-end invocation's are
// ISSUE 11's (40/40/48 commits, 10800 virtual s; trace 12) shrunk by the
// common factor 0.5 the time cap forced.
type workload struct {
	name, why string
	arch      models.Arch
	// commits is one end-to-end child's timed window and seeds how many
	// children, each at its own seed derived from --seed, an invocation
	// pools (commits x seeds is the invocation's window). traceCommits is
	// the traced run's window. popsim's window is RunPopSim's virtual-time
	// horizon, so its counts are nominal: horizonPerCommit virtual seconds
	// are run for each.
	commits, seeds, traceCommits int
	horizonPerCommit             float64
	// evalEvery evaluates the test set every n timed commits (0 = never).
	evalEvery int
	// scale derives the cell's exp.Scale from the workload seed — the only
	// place the seed enters.
	scale func(seed int64) exp.Scale
	// handRun: the traced run drives commits through core.Server's staged
	// API. Otherwise it spans Runner.Round()/RunPopSim and uses the hooks.
	handRun bool
	fednet  bool
	popSpec string
}

func quick(seed int64) exp.Scale {
	sc := exp.QuickScale()
	sc.Parallelism = parallelism
	sc.Seed = seed
	return sc
}

// fanout is the shared shape of the two communication-bound cells: a
// 766k-parameter VGG-16 fanned out to 16 of 48 clients that each hold one
// tiny batch, so moving the model dominates training it.
func fanout(seed int64) exp.Scale {
	sc := quick(seed)
	sc.Clients, sc.K, sc.SamplesPerClient, sc.WidthScale = 48, 16, 2, 0.15
	return sc
}

var workloads = []*workload{
	{
		name: "inproc_resnet",
		why:  "training-bound: ResNet-18 quick scale, no codec, legacy Server.Round(); nn/tensor work must show here, wire/fednet/sched work must not",
		// One seed: acc_avg_best, the suite's only quality reading, needs the
		// whole window's training behind it.
		arch: models.ResNet18, commits: 20, seeds: 1, traceCommits: 6, evalEvery: 4,
		scale: quick, handRun: true,
	},
	{
		name: "wire_fanout",
		why:  "communication-bound: 766k-param VGG-16, K=16 tiny batches, delta codec + trimmed mean through sched sync; wire/prune/agg work must show here, nn barely",
		arch: models.VGG16, commits: 5, seeds: 4, traceCommits: 6,
		scale: func(seed int64) exp.Scale {
			sc := fanout(seed)
			sc.Codec, sc.Agg, sc.Sched, sc.Trace = "delta", "trim:frac=0.2", "sync", "straggler"
			return sc
		},
		handRun: true,
	},
	{
		name: "fednet_fanout",
		why:  "same shapes as wire_fanout over loopback HTTP agents, q8 negotiated, semiasync under churn; the difference to wire_fanout is fednet's cost",
		arch: models.VGG16, commits: 6, seeds: 5, traceCommits: 6,
		scale: func(seed int64) exp.Scale {
			sc := fanout(seed)
			// Windows are in virtual seconds: a quick-scale commit costs ~17
			// virtual ms, so the default 30 s windows would never fire.
			sc.Codec, sc.Sched, sc.Trace = "q8", "semiasync", "churn:on=0.2,off=0.05"
			return sc
		},
		fednet: true,
	},
	{
		name: "popsim_1m",
		why:  "population-bound: 1M lazy clients, 8 edges, semiasync, MobileNetV2 (depthwise path); lazy materialise/evict, shard generation, sparse RL tables; memory is the headline",
		arch: models.MobileNetV2, commits: 14, seeds: 5, traceCommits: 28, horizonPerCommit: 193,
		scale: func(seed int64) exp.Scale {
			sc := quick(seed)
			sc.Sched = "semiasync"
			return sc
		},
		popSpec: "mix:n=1000000,weak=0.6,churn=30",
	},
}

const popEdges = 8

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// window scales a runSeconds-sized window to --seconds, at least 1.
func window(base int, seconds float64) int {
	n := int(math.Round(float64(base) * seconds / runSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// cell is a built engine workload: the federation, the runner users
// would drive, and the server whose ledger the metrics read.
type cell struct {
	sc      exp.Scale
	fed     *exp.Federation
	runner  baselines.Runner
	srv     *core.Server
	eng     *sched.Engine // nil on the legacy Round path
	cluster *fednet.Cluster
}

func (c *cell) close() {
	if c.cluster != nil {
		c.cluster.Close()
	}
}

// buildFederation is the first half of set-up, shared by the e2e cell and
// the hand-run traced server.
func (w *workload) buildFederation(sc exp.Scale) (*exp.Federation, error) {
	return exp.BuildFederation(w.arch, "cifar10", exp.IID, exp.DefaultProportions, sc)
}

// build assembles the cell through the entry points users call:
// exp.BuildFederation + exp.NewRunner, with fednet wired exactly as
// cmd/adaptivefl -fednet does.
func (w *workload) build(sc exp.Scale) (*cell, error) {
	fed, err := w.buildFederation(sc)
	if err != nil {
		return nil, err
	}
	c := &cell{sc: sc, fed: fed}
	if w.fednet {
		c.cluster, err = fednet.NewCluster(fed.Clients, fed.Model, prune.Config{P: 3}, sc.TrainConfig())
		if err != nil {
			return nil, err
		}
		codec, err := wire.ByTag(sc.Codec)
		if err != nil {
			c.close()
			return nil, err
		}
		c.cluster.Trainer.Negotiate(codec)
		c.sc.Trainer = c.cluster.Trainer
	}
	c.runner, err = exp.NewRunner("AdaptiveFL", fed, c.sc)
	if err != nil {
		c.close()
		return nil, err
	}
	switch r := c.runner.(type) {
	case *baselines.Adaptive:
		c.srv = r.Srv
	case *baselines.SchedAdaptive:
		c.srv, c.eng = r.Srv, r.Eng
	default:
		c.close()
		return nil, fmt.Errorf("runner %T exposes no server", c.runner)
	}
	return c, nil
}
