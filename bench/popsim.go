package main

import (
	"fmt"
	"sync"
	"time"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/prune"
)

// stamped is an engine span with the wall-clock instant it reached the
// bench's sink — the load generator's clock, not layer tracing.
type stamped struct {
	obs.Span
	at time.Time
}

// stampSink is the sink-only observer the bench attaches where span
// arrivals are the only commit boundary visible from outside: it stamps
// each engine span on arrival. hook, when set, runs under the lock after
// the span is kept.
type stampSink struct {
	mu    sync.Mutex
	spans []stamped
	hook  func(stamped)
}

// Span implements obs.SpanSink. Engine spans arrive on the event loop;
// LRU spans may arrive from workers, hence the lock.
func (s *stampSink) Span(sp obs.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := stamped{sp, time.Now()}
	s.spans = append(s.spans, st)
	if s.hook != nil {
		s.hook(st)
	}
}

// popRun is a finished popsim run: the spans, the window boundary and
// RunPopSim's own summary.
type popRun struct {
	sc   exp.Scale
	spec core.PopulationSpec
	// mcfg / pool are the model and pool RunPopSim builds from (sc, spec).
	mcfg   models.Config
	pool   *prune.Pool
	res    *exp.PopSimResult
	spans  []stamped
	window []stamped // spans that arrived after the first global merge
	before procSnap
	after  procSnap
	merges []stamped // every global-merge span, warm-up first
}

func (w *workload) runPop(seed int64, horizon float64) (*popRun, error) {
	spec, err := core.ParsePopulation(w.popSpec)
	if err != nil {
		return nil, err
	}
	sc := w.scale(seed)
	mcfg, err := exp.ModelConfig(w.arch, spec.Dataset, sc)
	if err != nil {
		return nil, err
	}
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		return nil, err
	}
	// RunPopSim is one call, so the timed window opens inside it: at the
	// first global merge, the warm-up commit.
	var before procSnap
	opened := false
	sink := &stampSink{hook: func(st stamped) {
		if st.Kind == obs.KindGlobalMerge && !opened {
			opened, before = true, snap()
		}
	}}
	sc.Observer = obs.NewObserver(nil, sink)
	res, err := exp.RunPopSim(nil, spec, sc, popEdges, horizon, 0)
	if err != nil {
		return nil, err
	}
	run := &popRun{sc: sc, spec: spec, mcfg: mcfg, pool: pool, res: res, spans: sink.spans, before: before, after: snap()}
	for i, sp := range run.spans {
		if sp.Kind != obs.KindGlobalMerge {
			continue
		}
		if len(run.merges) == 0 {
			run.window = run.spans[i+1:]
		}
		run.merges = append(run.merges, sp)
	}
	if len(run.merges) == 0 {
		return nil, fmt.Errorf("popsim: no global merge within %.0f virtual s", horizon)
	}
	return run, nil
}

// ledger rebuilds the window's ledger from its flight spans, mirroring
// core.RoundStats.Add: failed and dropped flights return nothing, and
// only merged (or late-reused) ones count returned parameters.
func (r *popRun) ledger() ledger {
	size := map[string]int64{}
	for _, m := range r.pool.Members {
		size[m.Name()] = m.Size
	}
	l := ledger{commits: len(r.merges) - 1, trained: map[string]int{}, sentMix: map[string]int{}}
	perFlight := int64(r.spec.Samples * r.sc.LocalEpochs)
	for _, sp := range r.window {
		if sp.Kind != obs.KindFlight {
			continue
		}
		l.flights++
		l.sentMix[sp.Sent]++
		l.sentParams += size[sp.Sent]
		switch sp.Outcome {
		case obs.OutcomeMerged, obs.OutcomeClipped:
			l.merged++
			l.backParams += size[sp.Got]
		case obs.OutcomeLateReused:
			l.lateReused++
			l.backParams += size[sp.Got]
		case obs.OutcomeLate:
			l.late++
		case obs.OutcomeDropped:
			l.dropped++
		case obs.OutcomeFailed:
			l.failed++
		}
		if sp.TrainSkipped {
			l.skipped++
		}
		if sp.Outcome != obs.OutcomeFailed && !sp.TrainSkipped {
			l.trainings++
			l.samples += perFlight
			if sp.Outcome != obs.OutcomeDropped {
				l.trained[sp.Got]++
			}
		}
	}
	return l
}

// commitTimes are the wall-clock gaps between consecutive global merges.
func (r *popRun) commitTimes() []float64 {
	ts := make([]float64, 0, len(r.merges)-1)
	for i := 1; i < len(r.merges); i++ {
		ts = append(ts, r.merges[i].at.Sub(r.merges[i-1].at).Seconds())
	}
	return ts
}

// runPopE2E is popsim_1m's untraced child. Set-up ends at the first
// global merge; a set-up-only child runs a horizon so short that
// RunPopSim returns right after it. RunPopSim's window is a virtual-time
// horizon, sized to hold `nominal` global commits at the median seed; a
// seed's own count lies within about a quarter of it.
func runPopE2E(w *workload, seed int64, nominal int, setupOnly bool) (*childResult, *popRun, error) {
	res := &childResult{Workload: w.name, Mode: "e2e", Seed: seed, Metrics: metrics{}}
	horizon := w.horizonPerCommit * float64(nominal)
	if setupOnly {
		horizon = 1
		res.Mode = "setup"
	}
	run, err := w.runPop(seed, horizon)
	if err != nil {
		return nil, nil, err
	}
	m := res.Metrics
	m["setup_s"] = run.merges[0].at.Sub(procStart).Seconds()
	if setupOnly {
		return res, run, nil
	}
	commits := len(run.merges) - 1
	if commits < 1 {
		return nil, nil, fmt.Errorf("popsim: horizon %.0f holds no commit after the warm-up", horizon)
	}
	res.Commits = commits
	times := run.commitTimes()
	l := run.ledger()
	res.Totals = newTotals(run.before, run.after, times, l)
	res.Totals.Nominal = nominal
	res.Totals.metrics(m)
	m["peak_rss_mib"] = peakRSSMiB()
	m["comm_waste_rate"] = l.wasteRate()
	res.Samples = len(times)
	m["sim_s_per_commit"] = (run.merges[commits].Time - run.merges[0].Time) / float64(commits)
	m["acc_avg_best"] = 0
	res.Hash = hashHex(run.res.WeightsHash)
	res.Attempted = l.flights
	return res, run, nil
}

// popShapes rebuilds what the layer probes replay at popsim's shapes: a
// full-width state dict and one client's shard, generated the way
// RunPopSim's shard generator does.
func popShapes(mcfg models.Config, dcfg data.SynthConfig, spec core.PopulationSpec) (nn.State, *data.Dataset, int, error) {
	full, err := models.Build(mcfg, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	ws, err := data.NewWriterSampler(dcfg)
	if err != nil {
		return nil, nil, 0, err
	}
	classes := spec.Classes
	if classes <= 0 {
		classes = max(dcfg.Classes/3, 2)
	}
	shard, err := ws.Shard(spec.ClientSeed(0), spec.Samples, classes, 0.15, 0.15)
	return nn.StateDict(full), shard, classes, err
}
