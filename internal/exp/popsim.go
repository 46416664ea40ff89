package exp

import (
	"fmt"
	"io"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs/analyze"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/testbed"
)

// PopSimResult summarises one generated-population simulation.
type PopSimResult struct {
	Clients int
	Edges   int
	// SimTime is the virtual time reached (seconds); Commits the global
	// aggregations performed by then (edge-tier commits under a
	// hierarchy are counted separately).
	SimTime     float64
	Commits     int
	EdgeCommits int
	// Live / TotalMade audit the lazy population's memory envelope: the
	// clients currently materialised (LRU + pinned) and the total ever
	// materialised (total − distinct ≈ regeneration churn).
	Live      int
	TotalMade int64
	// RLRows counts allocated RL client columns, summed over servers.
	RLRows int
	// WeightsHash fingerprints the final global weights; two same-seed
	// runs must agree bit-for-bit.
	WeightsHash uint64
	// Mix is the realised weak/medium/strong split of the first 10k
	// clients (a cheap census, not the whole fleet).
	Mix [3]int
	// Ledger is the run's conservation summary (-ledger-out), the
	// cross-check target for `fltrace audit` over the run's span trace.
	Ledger *analyze.LedgerSummary
}

// popShardGen builds the lazy population's shard generator from the
// spec's data-distribution family: a WriterSampler whose prototype bank
// is shared read-only across the fleet and whose per-client shards derive
// from each client's own seed, so executor workers may cut shards
// concurrently.
func popShardGen(spec core.PopulationSpec, sc Scale) (core.ShardGen, error) {
	dcfg, err := DatasetConfig(spec.Dataset, sc)
	if err != nil {
		return nil, err
	}
	ws, err := data.NewWriterSampler(dcfg)
	if err != nil {
		return nil, err
	}
	classesPer := spec.Classes
	if classesPer <= 0 {
		classesPer = dcfg.Classes / 3
		if classesPer < 2 {
			classesPer = 2
		}
	}
	if classesPer > dcfg.Classes {
		return nil, fmt.Errorf("exp: population classes=%d exceeds the %s family's %d classes", classesPer, spec.Dataset, dcfg.Classes)
	}
	samples := spec.Samples
	return func(c int, seed int64) *data.Dataset {
		d, err := ws.Shard(seed, samples, classesPer, 0.15, 0.15)
		if err != nil {
			// The parameters were checked above and shards are cut on
			// executor workers, so a failure is a programming error.
			panic(fmt.Sprintf("exp: shard for client %d: %v", c, err))
		}
		return d
	}, nil
}

// scaledCost multiplies every priced duration of a base cost model by a
// constant factor. RunPopSim uses it to calibrate virtual time: the
// reduced-width bench models price a dispatch in milliseconds, which
// would turn a simulated day into millions of commits; scaling restores
// a realistic fleet cadence without touching the training math.
type scaledCost struct {
	base sched.CostModel
	f    float64
}

func (s scaledCost) DispatchTimes(class core.DeviceClass, d core.Dispatch, samples, epochs int) (down, train, up float64) {
	down, train, up = s.base.DispatchTimes(class, d, samples, epochs)
	return down * s.f, train * s.f, up * s.f
}

// calibRound is the virtual cost of one median full-model round under the
// automatic time scale: the few-minute cadence cross-device deployments
// observe, which prices a simulated day at a laptop-friendly commit count.
const calibRound = 180.0

// popCost wraps sim so one Medium-class round trip of the largest pool
// member (the full global model) costs calibRound virtual seconds. The
// factor is pure arithmetic on model constants — deterministic. A
// positive timeScale overrides the calibration with a fixed multiplier.
func popCost(sim sched.CostModel, pool *prune.Pool, spec core.PopulationSpec, epochs int, timeScale float64) sched.CostModel {
	if timeScale > 0 {
		return scaledCost{base: sim, f: timeScale}
	}
	if epochs < 1 {
		epochs = 1
	}
	largest := pool.Largest()
	d := core.Dispatch{Sent: largest, Got: largest}
	down, train, up := sim.DispatchTimes(core.Medium, d, spec.Samples, epochs)
	base := down + train + up
	if base <= 0 {
		return sim
	}
	return scaledCost{base: sim, f: calibRound / base}
}

// popServer builds one server over pop with the scale's model and
// training setup. seed differentiates edges; adv is the scale's
// adversarial sub-population with its seed already set (shards remap
// client ids locally, so edges carry offset adversary seeds and draw
// independent — but deterministic — attacker subsets).
func popServer(mcfg models.Config, pop core.Population, sc Scale, k int, seed int64, adv core.AdversarySpec) (*core.Server, error) {
	return core.NewServerPopulation(core.Config{
		Model:           mcfg,
		Pool:            prune.Config{P: 3},
		RL:              rl.Config{},
		ClientsPerRound: k,
		Train:           sc.TrainConfig(),
		Seed:            seed,
		Parallelism:     sc.Parallelism,
		Observer:        sc.Observer,
		Agg:             sc.Agg,
		Adversary:       adv,
	}, pop)
}

// RunPopSim runs a parametric population through the event engine for
// simSeconds of virtual time: spec describes the fleet (size, capability
// mix, churn, data family), edges > 1 shards it across a two-tier
// hierarchy (each edge running sc.Sched over its shard, feeding the
// global semiasync tier), and sc supplies model scale, policy, robust
// aggregation (Scale.Agg), adversary (Scale.Adversary) and seeds.
// timeScale multiplies every priced duration (0 = auto-calibrate to a
// realistic fleet cadence; see popCost). The run is deterministic: same
// (spec, sc, edges, timeScale) ⇒ identical weights hash and event logs.
// Progress lines go to w when non-nil.
func RunPopSim(w io.Writer, spec core.PopulationSpec, sc Scale, edges int, simSeconds, timeScale float64) (*PopSimResult, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("exp: population spec needs n >= 1 (got %d)", spec.N)
	}
	if edges < 1 {
		edges = 1
	}
	if edges > spec.N {
		return nil, fmt.Errorf("exp: %d edges for %d clients", edges, spec.N)
	}
	spec.Seed = sc.Seed + 977
	adv, err := core.ParseAdversary(sc.Adversary)
	if err != nil {
		return nil, err
	}
	adv.Seed = spec.Seed
	mcfg, err := ModelConfig(models.MobileNetV2, spec.Dataset, sc)
	if err != nil {
		return nil, err
	}
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		return nil, err
	}
	gen, err := popShardGen(spec, sc)
	if err != nil {
		return nil, err
	}
	pop, err := core.NewLazyPopulation(spec, pool, core.DefaultDeviceModel(), gen, 0)
	if err != nil {
		return nil, err
	}
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		return nil, err
	}
	cost := popCost(sim, pool, spec, sc.LocalEpochs, timeScale)
	policy := sc.Sched
	if policy == "" {
		policy = "semiasync"
	}
	pol, err := sched.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	weak := func(c int) bool { return spec.ClassOf(c) == core.Weak }
	baseTrace := sched.PopTrace{Spec: spec, SlowOnly: weak}

	res := &PopSimResult{Clients: spec.N, Edges: edges, Mix: spec.MixCounts(min(spec.N, 10_000))}
	// Engines train on their server's executor (sc.Parallelism wide); a
	// hierarchy puts every edge on edge 0's, so the overlapping edge steps
	// share one bound on live trainings.
	engCfg := func(k int) sched.Config {
		return sched.Config{Policy: pol, K: k, Epochs: sc.LocalEpochs}
	}

	if edges == 1 {
		srv, err := popServer(mcfg, pop, sc, sc.K, sc.Seed+101, adv)
		if err != nil {
			return nil, err
		}
		eng, err := sched.New(srv, cost, baseTrace, engCfg(sc.K))
		if err != nil {
			return nil, err
		}
		for eng.Clock() < simSeconds {
			if _, err := eng.Step(); err != nil {
				return nil, err
			}
			res.Commits++
			progress(w, eng.Clock(), simSeconds, res.Commits, pop)
		}
		res.SimTime = eng.Clock()
		res.WeightsHash = nn.HashState(srv.Global())
		res.RLRows = srv.Tables().Rows()
		res.Live, res.TotalMade = pop.Materialized()
		ledger := analyze.SummarizeStats(srv.Stats())
		ledger.Policy = policy
		ledger.HasDiscounts = true
		ledger.StalenessExp = eng.StalenessExp()
		ledger.DiscountSum = eng.DiscountSum()
		if sc.Observer.Enabled() {
			// LRU spans are in the trace only when observed, so the audit
			// target carries the balance only then.
			ledger.HasLRU = true
			ledger.LRULive = int64(res.Live)
			ledger.LRUMade = res.TotalMade
		}
		res.Ledger = &ledger
		return res, nil
	}

	// Two-tier topology: contiguous shards, one edge server + engine per
	// shard (distinct seeds → distinct selection streams), all feeding the
	// global semiasync tier. K is split across edges (at least 1 each).
	kEdge := sc.K / edges
	if kEdge < 1 {
		kEdge = 1
	}
	per := spec.N / edges
	eds := make([]*sched.Edge, edges)
	for i := 0; i < edges; i++ {
		n := per
		if i == edges-1 {
			n = spec.N - per*(edges-1)
		}
		shard, err := core.NewShardPopulation(pop, i*per, n)
		if err != nil {
			return nil, err
		}
		advEdge := adv
		advEdge.Seed = adv.Seed + int64(i)
		srv, err := popServer(mcfg, shard, sc, kEdge, sc.Seed+101+1000*int64(i), advEdge)
		if err != nil {
			return nil, err
		}
		eng, err := sched.New(srv, cost, sched.OffsetTrace{Base: baseTrace, Offset: i * per}, engCfg(kEdge))
		if err != nil {
			return nil, err
		}
		eds[i] = &sched.Edge{Srv: srv, Eng: eng}
	}
	hier, err := sched.NewHierarchy(eds, cost, sched.HierConfig{Epochs: sc.LocalEpochs, Observer: sc.Observer})
	if err != nil {
		return nil, err
	}
	for hier.Clock() < simSeconds {
		if _, err := hier.Step(); err != nil {
			return nil, err
		}
		res.Commits++
		progress(w, hier.Clock(), simSeconds, res.Commits, pop)
	}
	res.SimTime = hier.Clock()
	res.WeightsHash = nn.HashState(hier.Global())
	var stats []core.RoundStats
	var discountSum, stalenessExp float64
	for _, ed := range eds {
		res.EdgeCommits += len(ed.Eng.Commits())
		res.RLRows += ed.Srv.Tables().Rows()
		stats = append(stats, ed.Srv.Stats()...)
		discountSum += ed.Eng.DiscountSum()
		stalenessExp = ed.Eng.StalenessExp()
	}
	ledger := analyze.SummarizeStats(stats)
	ledger.Policy = policy
	ledger.HasDiscounts = true
	ledger.DiscountSum = discountSum
	ledger.StalenessExp = stalenessExp
	ledger.GlobalCommits = len(hier.Commits())
	ledger.GlobalStalenessExp = hier.StalenessExp()
	ledger.GlobalDiscountSum = hier.DiscountSum()
	res.Live, res.TotalMade = pop.Materialized()
	if sc.Observer.Enabled() {
		ledger.HasLRU = true
		ledger.LRULive = int64(res.Live)
		ledger.LRUMade = res.TotalMade
	}
	res.Ledger = &ledger
	return res, nil
}

// progress emits an occasional status line (every 64 commits).
func progress(w io.Writer, clock, horizon float64, commits int, pop *core.LazyPopulation) {
	if w == nil || commits%64 != 0 {
		return
	}
	live, total := pop.Materialized()
	fmt.Fprintf(w, "t=%.0fs/%.0fs commits=%d live=%d made=%d\n", clock, horizon, commits, live, total)
}
