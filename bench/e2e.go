package main

import (
	"fmt"
	"math"
	"time"

	"adaptivefl/internal/baselines"
	"adaptivefl/internal/core"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/testbed"
)

// procStart anchors setup_s: the child's process start.
var procStart = time.Now()

// check is one output check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// verdicts is the correctness account a child reports and an invocation
// sums: Attempted counts the window's flights; Failed the errors, audit
// violations and failed output checks among them.
type verdicts struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Checks    []check `json:"checks,omitempty"`
}

func (v *verdicts) check(name string, ok bool, format string, args ...any) {
	v.Checks = append(v.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		v.Failed++
	}
}

// childResult is what one child process (one workload, one mode) reports
// to the parent as a single JSON line.
type childResult struct {
	Workload string  `json:"workload"`
	Mode     string  `json:"mode"`
	Seed     int64   `json:"seed"`
	Commits  int     `json:"commits"`
	Metrics  metrics `json:"metrics"`
	// Samples is the commit-time sample count behind the percentiles.
	Samples int `json:"samples"`
	// Totals are the timed window's raw sums (untraced children only).
	Totals totals `json:"totals"`
	// Hash is nn.HashState of the final global weights; AccFinal the last
	// eval's avg accuracy. Information, not pinned.
	Hash     string  `json:"hash"`
	AccFinal float64 `json:"acc_final,omitempty"`
	verdicts
}

func hashHex(h uint64) string { return fmt.Sprintf("%016x", h) }

// evalRecorder tracks the window's evaluations (the paper's table
// convention: best avg over the run).
type evalRecorder struct {
	calls    int
	seconds  float64
	best     float64
	last     float64
	toTarget int // first timed commit whose eval reached evalTarget; 0 = not reached
}

const (
	evalTarget = 0.30
	// accFloor is output check (3): inproc_resnet's best avg accuracy over
	// a full window must clear it. Across 50 seeds the 20-commit window
	// reads 0.15–0.52 (median 0.24), but chance, 0.10, is a legitimate
	// reading too: at seed 408 the model leaves it at round 24, the window's
	// best is 0.107 and three of its five evals read exactly 0.100. So the
	// floor sits below chance, where only a model trained the wrong way
	// lands; a diverged one is weights-finite's to catch.
	accFloor = 0.08
)

func (e *evalRecorder) eval(c *cell, commit int) error {
	t := time.Now()
	acc, err := c.runner.Evaluate(c.fed.Test, 64)
	if err != nil {
		return err
	}
	e.calls++
	e.seconds += time.Since(t).Seconds()
	e.last = baselines.AvgOf(acc)
	if e.last > e.best {
		e.best = e.last
	}
	if e.toTarget == 0 && e.last >= evalTarget {
		e.toTarget = commit
	}
	return nil
}

// simSeconds prices a ledger window on the Table 5 cost model the way the
// legacy round loop does (exp.TableTestbed): each round costs its slowest
// dispatch.
func simSeconds(c *cell, stats []core.RoundStats) (float64, error) {
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		return 0, err
	}
	classOf := func(id int) core.DeviceClass { return c.fed.Clients[id].Device.Class }
	t := 0.0
	for _, st := range stats {
		t += sim.RoundTime(st, classOf, c.samplesOf, c.sc.LocalEpochs)
	}
	return t, nil
}

func (c *cell) samplesOf(id int) int { return c.fed.Clients[id].Data.Len() }

// simClock is the virtual time the cell has consumed: the engine's clock,
// or the cost-model price of the ledger on the legacy path.
func (c *cell) simClock() (float64, error) {
	if c.eng != nil {
		return c.eng.Clock(), nil
	}
	return simSeconds(c, c.srv.Stats())
}

// runE2E is the untraced child of an engine workload: set-up, one untimed
// warm-up commit, then `commits` timed Runner.Round() calls issued
// closed-loop (the next only when the previous returned).
func runE2E(w *workload, seed int64, commits int, setupOnly bool) (*childResult, error) {
	res := &childResult{Workload: w.name, Mode: "e2e", Seed: seed, Commits: commits, Metrics: metrics{}}
	c, err := w.build(w.scale(seed))
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := c.runner.Round(); err != nil {
		return nil, fmt.Errorf("warm-up commit: %w", err)
	}
	res.Metrics["setup_s"] = time.Since(procStart).Seconds()
	if setupOnly {
		res.Mode = "setup"
		return res, nil
	}

	warm := len(c.srv.Stats())
	sim0, err := c.simClock()
	if err != nil {
		return nil, err
	}
	var ev evalRecorder
	times := make([]float64, 0, commits)
	before := snap()
	for i := 1; i <= commits; i++ {
		t := time.Now()
		if err := c.runner.Round(); err != nil {
			return nil, fmt.Errorf("commit %d: %w", i, err)
		}
		times = append(times, time.Since(t).Seconds())
		if w.evalEvery > 0 && i%w.evalEvery == 0 {
			if err := ev.eval(c, i); err != nil {
				return nil, err
			}
		}
	}
	after := snap()
	m := res.Metrics
	l := foldLedger(c.srv.Stats()[warm:], c.samplesOf, c.sc.LocalEpochs)
	res.Totals = newTotals(before, after, times, l)
	res.Totals.metrics(m)
	m["peak_rss_mib"] = peakRSSMiB()
	m["comm_waste_rate"] = l.wasteRate()
	res.Samples = len(times)
	sim1, err := c.simClock()
	if err != nil {
		return nil, err
	}
	m["sim_s_per_commit"] = (sim1 - sim0) / float64(commits)
	m["acc_avg_best"] = ev.best
	res.AccFinal = ev.last
	res.Hash = hashHex(nn.HashState(c.srv.Global()))
	res.Attempted = l.flights
	w.outputChecks(res, c.srv.Global(), l, ev)
	return res, nil
}

// outputChecks runs the untraced child's output checks (3), (4) and (6);
// (5) is the parent's, over the assembled metric set.
func (w *workload) outputChecks(res *childResult, global nn.State, l ledger, ev evalRecorder) {
	name, at := nonFinite(global)
	res.check("weights-finite", name == "", "global weights: non-finite value in %q at index %d", name, at)
	if w.evalEvery > 0 && ev.calls >= fullWindowEvals {
		res.check("accuracy-floor", ev.best >= accFloor, "acc_avg_best %.3f, floor %.2f", ev.best, accFloor)
	}
	if w.fednet {
		// Not-modified revalidations are counted, not asserted: they need the
		// same client to draw the same member twice within one snapshot, which
		// a 6-commit window sees on one seed in four.
		res.check("fednet-paths", l.reserved >= 1 && l.dropped >= 1,
			"%d re-served downlinks and %d dropped flights in the window (want >= 1 each); %d not-modified",
			l.reserved, l.dropped, l.notModified)
	}
}

// fullWindowEvals is the eval count below which the accuracy floor is not
// judged: a shortened window (the traced run, the tests) has not trained
// long enough to clear it.
const fullWindowEvals = 4

// nonFinite names the first NaN or Inf in st ("" when there is none).
func nonFinite(st nn.State) (name string, at int) {
	for _, n := range sortedKeys(st) {
		for i, v := range st[n].Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return n, i
			}
		}
	}
	return "", 0
}
