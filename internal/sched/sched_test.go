package sched_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/testbed"
)

func testModelCfg() models.Config {
	return models.Config{Arch: models.ResNet18, NumClasses: 4, WidthScale: 0.07, Seed: 3}
}

// buildServer assembles a small deterministic federation. Building it
// twice with the same arguments yields bit-identical populations.
func buildServer(t *testing.T, n, k int, seed int64) *core.Server {
	t.Helper()
	return buildServerCfg(t, n, k, seed, nil)
}

// buildServerCfg is buildServer with a final say over the server config
// (codec, trainer, executor width, …) before construction.
func buildServerCfg(t *testing.T, n, k int, seed int64, mutate func(*core.Config)) *core.Server {
	t.Helper()
	pool, err := prune.BuildPool(testModelCfg(), prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32,
		Train: n * 24, Test: 80, Noise: 0.3, MaxShift: 1, Seed: 11}
	train, _ := data.Generate(cfg)
	rng := rand.New(rand.NewSource(5))
	parts := data.PartitionIID(rng, train.Len(), n)
	devices := core.NewPopulation(rng, n, [3]float64{4, 3, 3}, pool, core.DefaultDeviceModel())
	clients := make([]*core.Client, n)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}
	ccfg := core.Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3},
		ClientsPerRound: k,
		Train:           core.TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.02, Momentum: 0.5},
		Seed:            seed, Parallelism: k,
	}
	if mutate != nil {
		mutate(&ccfg)
	}
	srv, err := core.NewServer(ccfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func testSim(t *testing.T) *testbed.Sim {
	t.Helper()
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func globalSums(srv *core.Server) map[string]float64 {
	sums := map[string]float64{}
	for name, v := range srv.Global() {
		sums[name] = v.Sum()
	}
	return sums
}

// TestSchedulerDeterministic is the determinism property: for every
// policy, the same seed and trace must yield an identical event log and an
// identical final global state.
func TestSchedulerDeterministic(t *testing.T) {
	policies := []sched.Policy{sched.Sync, sched.Deadline, sched.DeadlineReuse, sched.SemiAsync}
	commits := 2
	for _, policy := range policies {
		run := func() ([]string, map[string]float64) {
			srv := buildServer(t, 6, 3, 43)
			trace := &sched.RandomTrace{Seed: 99, MeanOn: 40, MeanOff: 5, SlowProb: 0.5, SlowFactor: 10}
			eng, err := sched.New(srv, testSim(t), trace, sched.Config{
				Policy: policy, K: 3, Extra: 2, Buffer: 2, Epochs: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(commits, nil); err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			return eng.Log(), globalSums(srv)
		}
		logA, sumsA := run()
		logB, sumsB := run()
		if len(logA) == 0 {
			t.Fatalf("%s: empty event log", policy)
		}
		if !reflect.DeepEqual(logA, logB) {
			t.Fatalf("%s: event logs differ:\nA: %s\nB: %s", policy,
				strings.Join(logA, "\n   "), strings.Join(logB, "\n   "))
		}
		for name, v := range sumsA {
			if sumsB[name] != v {
				t.Fatalf("%s: parameter %q differs across identical runs", policy, name)
			}
		}
	}
}

// TestStragglerPolicies pins the scheduler's reason to exist: with one
// client 10× slower than its class, the deadline and semiasync policies
// must reach the same number of aggregations in less simulated time than
// the synchronous barrier, which waits for the straggler whenever it is
// selected.
func TestStragglerPolicies(t *testing.T) {
	const n, k = 10, 5
	rounds := 4
	if testing.Short() {
		rounds = 3
	}
	// The straggler must be the slowest device in the fleet for the test's
	// orderings to be structural, so slow down a weak-class client (a Pi is
	// already the slowest class; 10× on top makes it dominate every
	// barrier). Populations are rebuilt identically per policy, so the
	// index probed here holds for every run.
	straggle := -1
	for i, c := range buildServer(t, n, k, 47).Clients() {
		if c.Device.Class == core.Weak {
			straggle = i
			break
		}
	}
	if straggle < 0 {
		t.Fatal("no weak client in the population")
	}
	runPolicy := func(policy sched.Policy) (float64, *core.Server) {
		srv := buildServer(t, n, k, 47)
		trace := &sched.RandomTrace{
			Seed: 7, MeanOn: 1e9, // one long segment: the slowdown is permanent
			SlowProb: 1, SlowFactor: 10,
			SlowOnly: func(c int) bool { return c == straggle },
		}
		eng, err := sched.New(srv, testSim(t), trace, sched.Config{
			Policy: policy, K: k, Extra: 2, Buffer: k, Epochs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(rounds, nil); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		return eng.Clock(), srv
	}

	tSync, syncSrv := runPolicy(sched.Sync)
	tDeadline, deadlineSrv := runPolicy(sched.Deadline)
	tSemi, _ := runPolicy(sched.SemiAsync)

	// The comparison is only meaningful if the sync run actually waited on
	// the straggler at least once; the fixed seed guarantees it did. And a
	// straggler trace never takes clients offline, so a speed-change
	// boundary must never masquerade as a dropout.
	hit := false
	for _, st := range syncSrv.Stats() {
		for _, d := range st.Dispatches {
			if d.Client == straggle {
				hit = true
			}
			if d.Dropped {
				t.Fatalf("round %d dropped client %d under a trace with no offline periods", st.Round, d.Client)
			}
		}
	}
	if !hit {
		t.Fatalf("seed never selected the straggler for sync — pick another seed")
	}
	if tDeadline >= tSync {
		t.Fatalf("deadline took %.1fs vs sync %.1fs — over-selection should beat the barrier", tDeadline, tSync)
	}
	if tSemi >= tSync {
		t.Fatalf("semiasync took %.1fs vs sync %.1fs — buffered aggregation should beat the barrier", tSemi, tSync)
	}

	// When the deadline run dispatched the straggler, its upload must show
	// up as waste (late or dropped), never as merged work.
	for _, st := range deadlineSrv.Stats() {
		for _, d := range st.Dispatches {
			if d.Client == straggle && !d.Failed && !d.Late && !d.Dropped {
				t.Fatalf("straggler's upload was aggregated in round %d despite the deadline", st.Round)
			}
		}
	}
}

// TestChurnTraceCompletes drives semiasync through a trace with real
// offline periods: the engine must keep making progress (waiting out
// windows, dropping mid-flight clients) and the drops must appear in the
// ledger as waste.
func TestChurnTraceCompletes(t *testing.T) {
	srv := buildServer(t, 6, 3, 53)
	// Short on-windows and heavy slowdowns so mid-flight dropouts occur
	// even in the -short run (the lazy-execution assertions below need at
	// least one drop).
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
	if got := len(eng.Commits()); got != commits {
		t.Fatalf("made %d commits, want %d", got, commits)
	}
	if eng.Clock() <= 0 {
		t.Fatal("clock did not advance")
	}
	stats := srv.Stats()
	if len(stats) != commits {
		t.Fatalf("ledger has %d entries, want %d", len(stats), commits)
	}
	// Lazy execution: a dropped flight's result is discarded unread, so the
	// engine must not have burned training compute on it — every drop is
	// ledgered TrainSkipped (no codec is in play, so upload pricing never
	// needs the trained result) and the totals line up.
	drops, skips := 0, 0
	for _, st := range stats {
		skips += st.TrainSkipped
		for _, d := range st.Dispatches {
			if d.Dropped && d.GotBytes != 0 {
				t.Fatalf("dropped dispatch charged uplink bytes: %+v", d)
			}
			// Capacity-failed flights never had training to skip, so the
			// engine's guarantee covers non-failed drops only.
			if d.Dropped && !d.Failed {
				drops++
				if !d.TrainSkipped {
					t.Fatalf("dropped dispatch trained anyway: %+v", d)
				}
			}
			if d.TrainSkipped && !(d.Dropped && !d.Failed) {
				t.Fatalf("dispatch marked TrainSkipped without a non-failed drop: %+v", d)
			}
		}
	}
	if drops == 0 {
		t.Fatal("churn trace produced no drops — pick another seed")
	}
	if skips != drops {
		t.Fatalf("ledger counts %d skipped trainings, want %d (one per drop)", skips, drops)
	}
}

// TestSerialParallelBitIdentity is the executor's determinism bar: a
// serial server (Parallelism=1) and a wide one (Parallelism=8) must
// produce identical event logs, ledgers, RL tables and global weights for
// every policy under a churny trace — parallel lazy execution may only
// change wall-clock, never results. Run with -race, this also shakes out
// synchronization bugs in the join/cancel paths.
func TestSerialParallelBitIdentity(t *testing.T) {
	commits := 3
	if testing.Short() {
		commits = 2
	}
	for _, policy := range []sched.Policy{sched.Sync, sched.Deadline, sched.DeadlineReuse, sched.SemiAsync} {
		run := func(par int) ([]string, map[string]float64, []core.RoundStats, *core.Server) {
			srv := buildServerCfg(t, 6, 3, 43, func(cfg *core.Config) { cfg.Parallelism = par })
			trace := &sched.RandomTrace{Seed: 99, MeanOn: 40, MeanOff: 5, SlowProb: 0.5, SlowFactor: 10}
			eng, err := sched.New(srv, testSim(t), trace, sched.Config{
				Policy: policy, K: 3, Extra: 2, Buffer: 2, Epochs: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(commits, nil); err != nil {
				t.Fatalf("%s par=%d: %v", policy, par, err)
			}
			return eng.Log(), globalSums(srv), srv.Stats(), srv
		}
		logS, sumsS, statsS, srvS := run(1)
		logP, sumsP, statsP, srvP := run(8)
		if !reflect.DeepEqual(logS, logP) {
			t.Fatalf("%s: event logs differ between Parallelism=1 and 8:\nserial:   %s\nparallel: %s",
				policy, strings.Join(logS, "\n          "), strings.Join(logP, "\n          "))
		}
		for name, v := range sumsS {
			if sumsP[name] != v {
				t.Fatalf("%s: parameter %q differs between serial and parallel runs", policy, name)
			}
		}
		if !reflect.DeepEqual(statsS, statsP) {
			t.Fatalf("%s: ledgers differ between serial and parallel runs:\nserial   %+v\nparallel %+v",
				policy, statsS, statsP)
		}
		if !reflect.DeepEqual(srvS.Tables().Tr, srvP.Tables().Tr) || !reflect.DeepEqual(srvS.Tables().Tc, srvP.Tables().Tc) {
			t.Fatalf("%s: RL tables differ between serial and parallel runs", policy)
		}
	}
}

// TestSerialParallelBitIdentityRobustAgg extends the determinism bar to
// the robust aggregation policies under an adversarial fleet: trimmed
// mean, multi-Krum and clip-composed aggregation — with sign-flip, scale
// and corrupt clients in the mix driving the Rejected and Clipped ledger
// paths — must stay bit-identical between a serial and a wide executor.
func TestSerialParallelBitIdentityRobustAgg(t *testing.T) {
	commits := 3
	if testing.Short() {
		commits = 2
	}
	adv, err := core.ParseAdversary("mix:frac=0.5,signflip=1,scale=1,corrupt=1,k=4")
	if err != nil {
		t.Fatal(err)
	}
	// Seed chosen so the 6-client fleet draws sign-flip, scale AND corrupt
	// attackers — the rejection assertion below depends on it.
	adv.Seed = 300
	for _, aggSpec := range []string{
		"trim:frac=0.25",
		"krum:frac=0.25,m=2",
		"clip:tau=0.5+trim:frac=0.25",
	} {
		run := func(par int) ([]string, map[string]float64, []core.RoundStats, *core.Server) {
			srv := buildServerCfg(t, 6, 3, 43, func(cfg *core.Config) {
				cfg.Agg = aggSpec
				cfg.Adversary = adv
				cfg.Parallelism = par
			})
			trace := &sched.RandomTrace{Seed: 99, MeanOn: 40, MeanOff: 5, SlowProb: 0.5, SlowFactor: 10}
			eng, err := sched.New(srv, testSim(t), trace, sched.Config{
				Policy: sched.DeadlineReuse, K: 3, Extra: 2, Buffer: 2, Epochs: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(commits, nil); err != nil {
				t.Fatalf("%s par=%d: %v", aggSpec, par, err)
			}
			return eng.Log(), globalSums(srv), srv.Stats(), srv
		}
		logS, sumsS, statsS, srvS := run(1)
		logP, sumsP, statsP, srvP := run(8)
		if !reflect.DeepEqual(logS, logP) {
			t.Fatalf("%s: event logs differ between Parallelism=1 and 8:\nserial:   %s\nparallel: %s",
				aggSpec, strings.Join(logS, "\n          "), strings.Join(logP, "\n          "))
		}
		for name, v := range sumsS {
			if sumsP[name] != v {
				t.Fatalf("%s: parameter %q differs between serial and parallel runs", aggSpec, name)
			}
		}
		if !reflect.DeepEqual(statsS, statsP) {
			t.Fatalf("%s: ledgers differ between serial and parallel runs:\nserial   %+v\nparallel %+v",
				aggSpec, statsS, statsP)
		}
		if !reflect.DeepEqual(srvS.Tables().Tr, srvP.Tables().Tr) || !reflect.DeepEqual(srvS.Tables().Tc, srvP.Tables().Tc) {
			t.Fatalf("%s: RL tables differ between serial and parallel runs", aggSpec)
		}
		rejected := 0
		for _, st := range statsS {
			rejected += st.Rejected
		}
		if rejected == 0 {
			t.Fatalf("%s: corrupt clients in the mix produced no rejections — the spec lost its teeth", aggSpec)
		}
	}
}

// TestRandomTraceWindows pins the trace generator's contract: windows are
// deterministic per seed, piecewise constant, and alternate on/off when
// MeanOff is set.
func TestRandomTraceWindows(t *testing.T) {
	mk := func() *sched.RandomTrace {
		return &sched.RandomTrace{Seed: 11, MeanOn: 20, MeanOff: 10, SlowProb: 0.5, SlowFactor: 4}
	}
	a, b := mk(), mk()
	for c := 0; c < 4; c++ {
		for _, ts := range []float64{0, 3.7, 12.9, 55.5, 123.4, 7.1} { // out of order on purpose
			upA, slowA, untilA := a.Window(c, ts)
			upB, slowB, untilB := b.Window(c, ts)
			if upA != upB || slowA != slowB || untilA != untilB {
				t.Fatalf("client %d t=%v: windows differ across identical traces", c, ts)
			}
			if untilA <= ts {
				t.Fatalf("client %d t=%v: window end %v not after query time", c, ts, untilA)
			}
			if !upA && slowA != 1 {
				t.Fatalf("off window carries slowdown %v", slowA)
			}
		}
	}
	// An off period must eventually occur with MeanOff > 0.
	sawOff := false
	for ts := 0.0; ts < 500; {
		up, _, until := a.Window(0, ts)
		if !up {
			sawOff = true
		}
		ts = until
	}
	if !sawOff {
		t.Fatal("trace with MeanOff=10 never went offline in 500s")
	}
}

// TestAlwaysOnWindow pins the trivial trace.
func TestAlwaysOnWindow(t *testing.T) {
	up, slow, until := sched.AlwaysOn{}.Window(3, 17.5)
	if !up || slow != 1 || !math.IsInf(until, 1) {
		t.Fatalf("AlwaysOn window = %v %v %v", up, slow, until)
	}
}

// TestParseTrace covers the -trace flag grammar.
func TestParseTrace(t *testing.T) {
	if tr, err := sched.ParseTrace("", 1, nil); err != nil || tr != (sched.AlwaysOn{}) {
		t.Fatalf("empty spec: %v %v", tr, err)
	}
	if _, err := sched.ParseTrace("always", 1, nil); err != nil {
		t.Fatal(err)
	}
	tr, err := sched.ParseTrace("straggler:slow=8,prob=1,on=5", 1, func(c int) bool { return c == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if _, slow, _ := tr.Window(0, 0); slow != 8 {
		t.Fatalf("straggler slow = %v, want 8", slow)
	}
	if _, slow, _ := tr.Window(1, 0); slow != 1 {
		t.Fatalf("non-straggler slow = %v, want 1", slow)
	}
	if _, err := sched.ParseTrace("churn:on=2,off=2", 1, nil); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"nope", "churn:on", "churn:on=x"} {
		if _, err := sched.ParseTrace(bad, 1, nil); err == nil {
			t.Fatalf("spec %q should fail", bad)
		}
	}
}

// TestParseTraceRejectsAdversarySuffix pins that a trace spec carries no
// adversary: the retired "trace;adversary" spelling fails in the trace
// grammar with its one-line error, so -adversary is the only way in.
func TestParseTraceRejectsAdversarySuffix(t *testing.T) {
	for _, bad := range []string{
		"straggler;signflip:frac=0.3",
		"churn:on=40;signflip:frac=0.3",
		"poisson:rate=0.1 ; signflip:frac=0.3",
	} {
		_, err := sched.ParseTrace(bad, 1, nil)
		if err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "sched: ") || strings.Contains(msg, "\n") {
			t.Fatalf("spec %q: error %q is not a one-line sched error", bad, msg)
		}
	}
}

// TestConfigValidation covers engine construction errors and defaults.
func TestConfigValidation(t *testing.T) {
	srv := buildServer(t, 4, 2, 61)
	sim := testSim(t)
	if _, err := sched.New(srv, sim, nil, sched.Config{Policy: "bogus", K: 2, Epochs: 1}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := sched.New(srv, sim, nil, sched.Config{Policy: sched.Sync, K: 0, Epochs: 1}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := sched.New(srv, sim, nil, sched.Config{Policy: sched.Sync, K: 99, Epochs: 1}); err == nil {
		t.Fatal("K beyond population accepted")
	}
	if _, err := sched.New(nil, sim, nil, sched.Config{Policy: sched.Sync, K: 2, Epochs: 1}); err == nil {
		t.Fatal("nil server accepted")
	}
	if _, err := sched.New(srv, nil, nil, sched.Config{Policy: sched.Sync, K: 2, Epochs: 1}); err == nil {
		t.Fatal("nil cost model accepted")
	}
	if _, err := sched.New(srv, sim, nil, sched.Config{Policy: sched.Sync, K: 2}); err == nil {
		t.Fatal("Epochs=0 accepted")
	}
	if _, err := sched.ParsePolicy("deadline"); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.ParsePolicy("deadline-reuse"); err != nil {
		t.Fatal(err)
	}
}
