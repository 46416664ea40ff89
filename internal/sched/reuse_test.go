package sched_test

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/wire"
)

// reuseScenario runs the 10×-slow-straggler federation (the same fleet as
// TestStragglerPolicies) under the given policy and staleness exponent.
func reuseScenario(t *testing.T, policy sched.Policy, alpha float64, rounds int) (*sched.Engine, *core.Server) {
	t.Helper()
	const n, k = 10, 5
	srv := buildServer(t, n, k, 47)
	// Populations are built bit-identically per seed, so probing the run's
	// own server is as structural as probing a throwaway copy.
	straggle := -1
	for i, c := range srv.Clients() {
		if c.Device.Class == core.Weak {
			straggle = i
			break
		}
	}
	if straggle < 0 {
		t.Fatal("no weak client in the population")
	}
	trace := &sched.RandomTrace{
		Seed: 7, MeanOn: 1e9, // one long segment: the slowdown is permanent
		SlowProb: 1, SlowFactor: 10,
		SlowOnly: func(c int) bool { return c == straggle },
	}
	eng, err := sched.New(srv, testSim(t), trace, sched.Config{
		Policy: policy, K: k, Extra: 2, Epochs: 1, StalenessExp: alpha,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(rounds, nil); err != nil {
		t.Fatalf("%s: %v", policy, err)
	}
	return eng, srv
}

// reuseStales extracts the stale= values of the late-reuse log lines.
func reuseStales(t *testing.T, log []string) []int {
	t.Helper()
	var stales []int
	for _, line := range log {
		if !strings.Contains(line, "late-reuse") {
			continue
		}
		i := strings.LastIndex(line, "stale=")
		if i < 0 {
			t.Fatalf("late-reuse line without stale: %q", line)
		}
		s, err := strconv.Atoi(line[i+len("stale="):])
		if err != nil {
			t.Fatalf("bad stale in %q: %v", line, err)
		}
		stales = append(stales, s)
	}
	return stales
}

// TestDeadlineReuseBanksStragglers is the reuse policy's reason to exist:
// under a permanent 10×-slow straggler, late uploads must be banked and
// merged into the next aggregation (ledgered LateReused, never
// double-merged), the schedule must finish no later than plain deadline's,
// and the whole run must be bit-deterministic.
func TestDeadlineReuseBanksStragglers(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 3
	}

	engD, _ := reuseScenario(t, sched.Deadline, 0, rounds)
	engR, srvR := reuseScenario(t, sched.DeadlineReuse, 0, rounds)

	// ≥1 late upload banked and merged, with a real staleness gap.
	reused := 0
	for _, c := range engR.Commits() {
		reused += c.LateReused
	}
	if reused == 0 {
		t.Fatal("deadline-reuse merged no late uploads — pick another seed")
	}
	stales := reuseStales(t, engR.Log())
	if len(stales) != reused {
		t.Fatalf("%d late-reuse log lines for %d LateReused commits", len(stales), reused)
	}
	maxStale := 0
	for _, s := range stales {
		if s > maxStale {
			maxStale = s
		}
	}
	if maxStale < 1 {
		t.Fatalf("banked uploads all carried stale=0 — the discount path is untested (stales=%v)", stales)
	}

	// Reuse must not slow the schedule down: round closes are identical,
	// only the late uploads' fate changes.
	if engR.Clock() > engD.Clock() {
		t.Fatalf("deadline-reuse took %.1fs vs deadline %.1fs — reuse must not slow the schedule",
			engR.Clock(), engD.Clock())
	}

	// Ledger invariants: every dispatched flight is recorded exactly once
	// across all commits, and LateReused entries are consistent.
	dispatchLines := 0
	for _, line := range engR.Log() {
		if strings.Contains(line, " dispatch ") {
			dispatchLines++
		}
	}
	entries, ledgerReused := 0, 0
	for _, st := range srvR.Stats() {
		ledgerReused += st.LateReused
		for _, d := range st.Dispatches {
			entries++
			if d.LateReused && !d.Late {
				t.Fatalf("LateReused dispatch without Late: %+v", d)
			}
			if d.LateReused && (d.Failed || d.Dropped) {
				t.Fatalf("LateReused dispatch marked Failed/Dropped: %+v", d)
			}
		}
	}
	if ledgerReused != reused {
		t.Fatalf("ledger counts %d LateReused, commits count %d", ledgerReused, reused)
	}
	// Stragglers still open at the end of the run are legitimately
	// unrecorded; everything settled must appear exactly once, so the
	// ledger plus the in-flight set must account for every dispatch.
	if entries+srvR.InFlight() != dispatchLines {
		t.Fatalf("%d ledger entries + %d in flight ≠ %d dispatches — a flight was double-recorded or lost",
			entries, srvR.InFlight(), dispatchLines)
	}

	// A LateReused upload contributes returned parameters (it was not
	// waste), unlike a discarded Late one.
	for _, st := range srvR.Stats() {
		if st.LateReused > 0 && st.ReturnedParams == 0 {
			t.Fatalf("round %d reused %d uploads but counted no returned params", st.Round, st.LateReused)
		}
	}

	// Bit-determinism: an identical second run replays exactly.
	engR2, srvR2 := reuseScenario(t, sched.DeadlineReuse, 0, rounds)
	if !reflect.DeepEqual(engR.Log(), engR2.Log()) {
		t.Fatalf("deadline-reuse event logs differ across identical runs:\nA: %s\nB: %s",
			strings.Join(engR.Log(), "\n   "), strings.Join(engR2.Log(), "\n   "))
	}
	sumsA, sumsB := globalSums(srvR), globalSums(srvR2)
	for name, v := range sumsA {
		if sumsB[name] != v {
			t.Fatalf("parameter %q differs across identical deadline-reuse runs", name)
		}
	}

	// The staleness discount must actually bite: disabling it (α = 0 via
	// the negative sentinel) changes the aggregated weights.
	_, srvNoDisc := reuseScenario(t, sched.DeadlineReuse, -1, rounds)
	sumsND := globalSums(srvNoDisc)
	same := true
	for name, v := range sumsA {
		if sumsND[name] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("disabling the staleness discount changed nothing — the discount is not applied")
	}
}

// TestStalenessDiscount pins the 1/(1+s)^α formula and its edge cases.
func TestStalenessDiscount(t *testing.T) {
	cases := []struct {
		stale int
		exp   float64
		want  float64
	}{
		{0, 0.5, 1},
		{-3, 0.5, 1},
		{1, 0.5, 1 / math.Sqrt(2)},
		{3, 0.5, 0.5},
		{3, 1, 0.25},
		{5, 0, 1},
	}
	for _, c := range cases {
		if got := sched.StalenessDiscount(c.stale, c.exp); math.Abs(got-c.want) > 1e-15 {
			t.Fatalf("StalenessDiscount(%d, %v) = %v, want %v", c.stale, c.exp, got, c.want)
		}
	}
}

// TestCodecStragglersLedgerActualBytes: a deadline round closing on codec
// stragglers cancels them, but a codec flight still pending at the close
// is joined and priced first, so its ledger view is the executed one
// whatever the worker timing. Serial and wide runs produce identical logs and ledgers,
// and every late dispatch ledgers the actual upload it trained.
func TestCodecStragglersLedgerActualBytes(t *testing.T) {
	commits := 3
	if testing.Short() {
		commits = 2
	}
	run := func(par int) ([]string, []core.RoundStats) {
		srv := buildServerCfg(t, 6, 3, 43, func(cfg *core.Config) {
			cfg.Codec = wire.Q8{}
			cfg.Parallelism = par
		})
		trace := &sched.RandomTrace{Seed: 99, MeanOn: 40, MeanOff: 5, SlowProb: 0.5, SlowFactor: 10}
		eng, err := sched.New(srv, testSim(t), trace, sched.Config{
			Policy: sched.Deadline, K: 3, Extra: 2, Epochs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(commits, nil); err != nil {
			t.Fatal(err)
		}
		return eng.Log(), srv.Stats()
	}
	logS, statsS := run(1)
	logP, statsP := run(8)
	if !reflect.DeepEqual(logS, logP) {
		t.Fatalf("event logs differ between Parallelism=1 and 8:\nserial:   %s\nparallel: %s",
			strings.Join(logS, "\n          "), strings.Join(logP, "\n          "))
	}
	if !reflect.DeepEqual(statsS, statsP) {
		t.Fatalf("ledgers differ between serial and parallel runs:\nserial   %+v\nparallel %+v", statsS, statsP)
	}
	lates := 0
	for _, st := range statsS {
		for _, d := range st.Dispatches {
			if !d.Late || d.Failed {
				continue
			}
			lates++
			if d.GotBytes <= 0 || d.TrainSkipped {
				t.Fatalf("late codec dispatch did not ledger its trained upload: %+v", d)
			}
		}
	}
	if lates == 0 {
		t.Fatal("no late dispatches — the straggler path was not exercised, pick another seed")
	}
}

// TestCodecSealedDropsSkipTraining: a codec flight whose drop is sealed
// before its upload is never trained, the same as a codec-less one; only
// a drop during the upload needs the trained payload to be priced.
func TestCodecSealedDropsSkipTraining(t *testing.T) {
	srv := buildServerCfg(t, 6, 3, 53, func(cfg *core.Config) { cfg.Codec = wire.Q8{} })
	trace := &sched.RandomTrace{Seed: 2, MeanOn: 2, MeanOff: 3, SlowProb: 0.6, SlowFactor: 10}
	eng, err := sched.New(srv, testSim(t), trace, sched.Config{
		Policy: sched.SemiAsync, K: 3, Buffer: 2, Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	commits := 3
	if testing.Short() {
		commits = 2
	}
	if err := eng.Run(commits, nil); err != nil {
		t.Fatal(err)
	}
	skips := 0
	for _, st := range srv.Stats() {
		for _, d := range st.Dispatches {
			if d.TrainSkipped {
				skips++
				if !d.Dropped || d.Failed || d.GotBytes != 0 {
					t.Fatalf("skipped dispatch is not a sealed drop: %+v", d)
				}
			}
		}
	}
	if skips == 0 {
		t.Fatal("no codec flight skipped its training — pick another seed")
	}
}
