package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/testbed"
	"adaptivefl/internal/wire"
)

// syncEngine puts srv on the scheduler engine's sync policy, which runs
// every AdaptiveFL round: one barrier round per Step at the server's K,
// priced on the Table 5 platform with every client always online.
func syncEngine(t *testing.T, srv *core.Server) *sched.Engine {
	t.Helper()
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sched.New(srv, sim, nil, sched.Config{Policy: sched.Sync, K: srv.K(), Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRoundUpdatesGlobalAndTables(t *testing.T) {
	pool := core.FixturePool(t)
	clients, _ := core.FixtureClients(t, 6, pool)
	srv, err := core.NewServer(core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 3, Train: core.FixtureTrain(), Seed: 7,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Global().Clone()
	if err := syncEngine(t, srv).Run(1, nil); err != nil {
		t.Fatal(err)
	}
	after := srv.Global()
	changed := false
	for name, v := range after {
		for i := range v.Data {
			if v.Data[i] != before[name].Data[i] {
				changed = true
				break
			}
		}
		if changed {
			break
		}
	}
	if !changed {
		t.Fatal("global state unchanged after a round")
	}
	st := srv.Stats()
	if len(st) != 1 || len(st[0].Dispatches) != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].SentParams <= 0 || st[0].ReturnedParams <= 0 {
		t.Fatalf("ledger empty: %+v", st[0])
	}
	// Returned models never exceed what was sent.
	for _, d := range st[0].Dispatches {
		if !d.Failed && d.Got.Size > d.Sent.Size {
			t.Fatalf("returned model larger than sent: %+v", d)
		}
	}
}

func TestRoundClientsUniquePerRound(t *testing.T) {
	pool := core.FixturePool(t)
	clients, _ := core.FixtureClients(t, 8, pool)
	srv, err := core.NewServer(core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 8, Train: core.FixtureTrain(), Seed: 9,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := syncEngine(t, srv).Run(1, nil); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, d := range srv.Stats()[0].Dispatches {
		if seen[d.Client] {
			t.Fatalf("client %d selected twice in one round", d.Client)
		}
		seen[d.Client] = true
	}
}

func TestGreedyDispatchesOnlyL1(t *testing.T) {
	pool := core.FixturePool(t)
	clients, _ := core.FixtureClients(t, 6, pool)
	srv, err := core.NewServer(core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 4, Train: core.FixtureTrain(), Seed: 11, Greedy: true,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := syncEngine(t, srv).Run(1, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range srv.Stats()[0].Dispatches {
		if d.Sent.Level != prune.LevelL {
			t.Fatalf("greedy sent %s, want L1", d.Sent.Name())
		}
	}
	// Greedy wastes communication: weak/medium devices pruned locally.
	if w := core.CommWasteRate(srv.Stats()); w <= 0 {
		t.Fatalf("greedy waste = %v, want > 0", w)
	}
}

func TestWeakDevicesForceLocalPruning(t *testing.T) {
	pool := core.FixturePool(t)
	// All-weak population receiving L1 must return S-level models.
	cfgData := data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32, Train: 48, Test: 10, Noise: 0.3, Seed: 13}
	train, _ := data.Generate(cfgData)
	rng := rand.New(rand.NewSource(14))
	devices := core.NewPopulation(rng, 4, [3]float64{1, 0, 0}, pool, core.DefaultDeviceModel())
	parts := data.PartitionIID(rng, train.Len(), 4)
	clients := make([]*core.Client, 4)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}
	srv, err := core.NewServer(core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 4, Train: core.FixtureTrain(), Seed: 15, Greedy: true,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := syncEngine(t, srv).Run(1, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range srv.Stats()[0].Dispatches {
		if d.Failed {
			continue
		}
		if d.Got.Level != prune.LevelS {
			t.Fatalf("weak device returned %s, want S-level", d.Got.Name())
		}
	}
}

func TestRLSelectionReducesWasteVsRandom(t *testing.T) {
	// After a burn-in, RL-CS should dispatch large models to weak devices
	// less often than Random does, lowering the waste rate.
	rounds, burnIn := 12, 4
	if testing.Short() {
		rounds, burnIn = 5, 2
	}
	run := func(mode rl.Mode, seed int64) float64 {
		pool := core.FixturePool(t)
		clients, _ := core.FixtureClients(t, 10, pool)
		srv, err := core.NewServer(core.Config{
			Model: core.FixtureModel(), Pool: prune.Config{P: 3}, Mode: mode,
			ClientsPerRound: 5, Train: core.TrainConfig{LocalEpochs: 1, BatchSize: 24, LR: 0.02, Momentum: 0}, Seed: seed,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		if err := syncEngine(t, srv).Run(rounds, nil); err != nil {
			t.Fatal(err)
		}
		// Ignore the first rounds (exploration).
		return core.CommWasteRate(srv.Stats()[burnIn:])
	}
	if testing.Short() {
		// Reduced scale: too few rounds for the statistical comparison to
		// be reliable, so just exercise both selection paths end to end
		// and sanity-check the waste ledger.
		for _, mode := range []rl.Mode{rl.ModeCS, rl.ModeRandom} {
			if w := run(mode, 21); w < 0 || w > 1 {
				t.Fatalf("mode %v waste rate %v outside [0,1]", mode, w)
			}
		}
		return
	}
	wasteRL := (run(rl.ModeCS, 21) + run(rl.ModeCS, 22) + run(rl.ModeCS, 23)) / 3
	wasteRnd := (run(rl.ModeRandom, 21) + run(rl.ModeRandom, 22) + run(rl.ModeRandom, 23)) / 3
	if wasteRL >= wasteRnd {
		t.Fatalf("RL-CS waste %.3f should be below Random %.3f", wasteRL, wasteRnd)
	}
}

func TestFederatedTrainingImproves(t *testing.T) {
	pool := core.FixturePool(t)
	clients, test := core.FixtureClients(t, 8, pool)
	srv, err := core.NewServer(core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 4, Train: core.TrainConfig{LocalEpochs: 2, BatchSize: 12, LR: 0.12, Momentum: 0.5}, Seed: 31,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := srv.GlobalModel()
	if err != nil {
		t.Fatal(err)
	}
	accBefore := eval.Accuracy(m0, test, 40)
	// Heterogeneous FL has a warm-up phase: the full model's deep channels
	// stay at their random initialisation until enough L-level dispatches
	// have trained them, so give the run enough rounds to take off. In
	// -short mode the run is cut to the warm-up itself: the improvement
	// bound cannot be asserted yet, so only require that training does not
	// diverge.
	rounds := 14
	if testing.Short() {
		rounds = 3
	}
	if err := syncEngine(t, srv).Run(rounds, nil); err != nil {
		t.Fatal(err)
	}
	m1, err := srv.GlobalModel()
	if err != nil {
		t.Fatal(err)
	}
	accAfter := eval.Accuracy(m1, test, 40)
	if testing.Short() {
		if accAfter < accBefore-0.1 {
			t.Fatalf("accuracy %.3f -> %.3f: training diverged", accBefore, accAfter)
		}
		return
	}
	if accAfter <= accBefore+0.15 {
		t.Fatalf("accuracy %.3f -> %.3f: federated training did not improve", accBefore, accAfter)
	}
}

func TestDeterministicRuns(t *testing.T) {
	// Same seeds must reproduce the exact global state, goroutines or not.
	run := func() map[string]float64 {
		pool := core.FixturePool(t)
		clients, _ := core.FixtureClients(t, 6, pool)
		srv, err := core.NewServer(core.Config{
			Model: core.FixtureModel(), Pool: prune.Config{P: 3},
			ClientsPerRound: 3, Train: core.FixtureTrain(), Seed: 41, Parallelism: 3,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		if err := syncEngine(t, srv).Run(2, nil); err != nil {
			t.Fatal(err)
		}
		sums := map[string]float64{}
		for name, v := range srv.Global() {
			sums[name] = v.Sum()
		}
		return sums
	}
	a, b := run(), run()
	for name, v := range a {
		if b[name] != v {
			t.Fatalf("parameter %q differs across identical runs", name)
		}
	}
}

// TestFailedDispatchAccounting injects a device whose capacity is below
// the smallest pool member: the dispatch must be recorded as failed, waste
// the full sent size, and still update the RL tables so the selector
// learns to avoid the client.
func TestFailedDispatchAccounting(t *testing.T) {
	pool := core.FixturePool(t)
	dcfg := data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32, Train: 24, Test: 10, Noise: 0.3, Seed: 51}
	train, _ := data.Generate(dcfg)
	// One client whose device fits nothing.
	clients := []*core.Client{{
		ID:     0,
		Data:   train,
		Device: &core.Device{Class: core.Weak, Base: pool.Smallest().Size / 2},
	}}
	srv, err := core.NewServer(core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 1, Train: core.FixtureTrain(), Seed: 52, Greedy: true,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Global().Clone()
	if err := syncEngine(t, srv).Run(1, nil); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()[0]
	if len(st.Dispatches) != 1 || !st.Dispatches[0].Failed {
		t.Fatalf("expected one failed dispatch, got %+v", st.Dispatches)
	}
	if st.ReturnedParams != 0 || st.SentParams == 0 {
		t.Fatalf("failed round ledger wrong: %+v", st)
	}
	if w := core.CommWasteRate(srv.Stats()); w != 1 {
		t.Fatalf("waste = %v, want 1 for all-failed round", w)
	}
	// Aggregation must be skipped: the global model is unchanged.
	for name, v := range srv.Global() {
		for i := range v.Data {
			if v.Data[i] != before[name].Data[i] {
				t.Fatal("global changed despite no successful uploads")
			}
		}
	}
	// Table update happened (smallest member recorded as the observation).
	if srv.Tables().Tr(pool.Smallest().Index, 0) == 1 {
		t.Fatal("RL tables not updated after failure")
	}
}

// TestRoundWithAllLevelsAggregates drives a mixed population long enough
// that every pool level is dispatched and returned at least once. In
// -short mode a reduced round budget is used; the run is deterministic
// (fixed seed), so the smaller budget is known to still cover all levels.
func TestRoundWithAllLevelsAggregates(t *testing.T) {
	pool := core.FixturePool(t)
	clients, _ := core.FixtureClients(t, 9, pool)
	srv, err := core.NewServer(core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 6, Train: core.FixtureTrain(), Seed: 53,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 15
	if testing.Short() {
		rounds = 10
	}
	seen := map[prune.Level]bool{}
	if err := syncEngine(t, srv).Run(rounds, nil); err != nil {
		t.Fatal(err)
	}
	for _, st := range srv.Stats() {
		for _, d := range st.Dispatches {
			if !d.Failed {
				seen[d.Got.Level] = true
			}
		}
	}
	for _, lvl := range []prune.Level{prune.LevelS, prune.LevelM, prune.LevelL} {
		if !seen[lvl] {
			t.Errorf("level %v never trained in %d rounds", lvl, rounds)
		}
	}
}

// TestParallelismOneMatchesParallelismMany guards against data races and
// nondeterminism in the concurrent round executor.
func TestParallelismOneMatchesParallelismMany(t *testing.T) {
	run := func(par int) map[string]float64 {
		pool := core.FixturePool(t)
		clients, _ := core.FixtureClients(t, 6, pool)
		srv, err := core.NewServer(core.Config{
			Model: core.FixtureModel(), Pool: prune.Config{P: 3},
			ClientsPerRound: 4, Train: core.FixtureTrain(), Seed: 54, Parallelism: par,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		if err := syncEngine(t, srv).Run(2, nil); err != nil {
			t.Fatal(err)
		}
		// Compare per-parameter (map iteration order is randomised, and
		// float addition is not associative across orders).
		sums := map[string]float64{}
		for name, v := range srv.Global() {
			sums[name] = v.Sum()
		}
		return sums
	}
	a, b := run(1), run(4)
	for name, v := range a {
		if b[name] != v {
			t.Fatalf("parallelism changed parameter %q", name)
		}
	}
}

// TestLiteralL1BonusChangesSelection exercises the docs/FIDELITY.md deviation
// switch end to end.
func TestLiteralL1BonusChangesSelection(t *testing.T) {
	pool := core.FixturePool(t)
	clients, _ := core.FixtureClients(t, 6, pool)
	mk := func(literal bool) *core.Server {
		srv, err := core.NewServer(core.Config{
			Model: core.FixtureModel(), Pool: prune.Config{P: 3},
			RL:              rlConfig(literal),
			ClientsPerRound: 3, Train: core.FixtureTrain(), Seed: 56,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	a, b := mk(false), mk(true)
	// The two servers share clients, hence device capacity draws: their
	// rounds alternate.
	ea, eb := syncEngine(t, a), syncEngine(t, b)
	for r := 0; r < 3; r++ {
		if _, err := ea.Step(); err != nil {
			t.Fatal(err)
		}
		if _, err := eb.Step(); err != nil {
			t.Fatal(err)
		}
	}
	last := len(a.Pool().Members) - 1
	diff := false
	for c := 0; c < 6; c++ {
		if a.Tables().Tr(last, c) != b.Tables().Tr(last, c) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("literal L1 bonus had no effect on the resource table")
	}
}

// rlConfig builds an rl.Config with the literal-L1 switch set.
func rlConfig(literal bool) rl.Config { return rl.Config{LiteralL1Bonus: literal} }

// mergedCount tallies the round's aggregated dispatches from the ledger.
func mergedCount(st core.RoundStats) int {
	n := 0
	for _, d := range st.Dispatches {
		if !d.Failed && !d.Dropped && !d.Rejected && (!d.Late || d.LateReused) {
			n++
		}
	}
	return n
}

// advServer builds a small in-process federation with the given adversary
// and aggregation settings.
func advServer(t *testing.T, seed int64, adversary, aggSpec string, codec wire.Codec) *core.Server {
	t.Helper()
	pool := core.FixturePool(t)
	clients, _ := core.FixtureClients(t, 6, pool)
	adv, err := core.ParseAdversary(adversary)
	if err != nil {
		t.Fatal(err)
	}
	adv.Seed = seed + 909
	srv, err := core.NewServer(core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 4, Train: core.FixtureTrain(), Seed: seed,
		Adversary: adv, Agg: aggSpec, Codec: codec,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestCodecLessCorruptRejected: with no codec the corrupt behavior poisons
// the raw upload with NaN; every such dispatch must come back Rejected —
// ledgered, byte-accounted, and kept out of the global model.
func TestCodecLessCorruptRejected(t *testing.T) {
	srv := advServer(t, 21, "corrupt:frac=1", "", nil)
	before := srv.Global().Clone()
	if err := syncEngine(t, srv).Run(1, nil); err != nil {
		t.Fatalf("round with all-corrupt fleet must complete: %v", err)
	}
	st := srv.Stats()[0]
	if st.Rejected != 4 || mergedCount(st) != 0 {
		t.Fatalf("rejected=%d merged=%d, want 4/0", st.Rejected, mergedCount(st))
	}
	for _, d := range st.Dispatches {
		if !d.Rejected || d.Failed {
			t.Fatalf("dispatch not ledgered as a clean rejection: %+v", d)
		}
	}
	for name, v := range srv.Global() {
		for i, x := range v.Data {
			if x != before[name].Data[i] {
				t.Fatal("all-rejected round moved the global model")
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatal("poison reached the global model")
			}
		}
	}
}

// TestCorruptWithCodecNeverPoisons: bit flips on the encoded payload either
// fail the decode (→ Rejected) or decode into finite garbage (→ merged and
// survivable); the one forbidden outcome is non-finite state downstream.
func TestCorruptWithCodecNeverPoisons(t *testing.T) {
	srv := advServer(t, 22, "corrupt:frac=1", "", wire.Raw{})
	if err := syncEngine(t, srv).Run(1, nil); err != nil {
		t.Fatalf("round with corrupt payloads must complete: %v", err)
	}
	st := srv.Stats()[0]
	if st.Rejected+mergedCount(st) != 4 {
		t.Fatalf("rejected=%d merged=%d, want 4 total", st.Rejected, mergedCount(st))
	}
	if !core.StateFinite(srv.Global()) {
		t.Fatal("corrupt payload poisoned the global model")
	}
	for _, d := range st.Dispatches {
		if d.GotBytes == 0 {
			t.Fatalf("dispatch lost its uplink byte count: %+v", d)
		}
	}
}

// TestClipPolicyLedgersClipped: a tiny tau clips every fresh merge, and the
// ledger says so — Clipped counts alongside (not instead of) Merged.
func TestClipPolicyLedgersClipped(t *testing.T) {
	srv := advServer(t, 23, "", "clip:tau=1e-9", nil)
	if err := syncEngine(t, srv).Run(1, nil); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()[0]
	if mergedCount(st) == 0 || st.Clipped != mergedCount(st) {
		t.Fatalf("clipped=%d merged=%d, want every merge clipped", st.Clipped, mergedCount(st))
	}
	for _, d := range st.Dispatches {
		if d.Clipped && d.Rejected {
			t.Fatalf("dispatch both clipped and rejected: %+v", d)
		}
	}
	if !core.StateFinite(srv.Global()) {
		t.Fatal("clipping produced a non-finite global")
	}
}

// TestRobustPolicyRoundsDeterministic: same-seed adversarial runs under a
// robust policy produce bit-identical globals and ledgers.
func TestRobustPolicyRoundsDeterministic(t *testing.T) {
	run := func() (map[string]float64, core.RoundStats) {
		srv := advServer(t, 29, "mix:frac=0.5,signflip=1,scale=1,k=4", "trim:frac=0.25", nil)
		if err := syncEngine(t, srv).Run(1, nil); err != nil {
			t.Fatal(err)
		}
		sums := map[string]float64{}
		for name, v := range srv.Global() {
			sums[name] = v.Sum()
		}
		return sums, srv.Stats()[0]
	}
	s1, st1 := run()
	s2, st2 := run()
	for name, v := range s1 {
		if s2[name] != v {
			t.Fatalf("parameter %q differs across same-seed adversarial runs", name)
		}
	}
	if st1.Rejected != st2.Rejected || st1.Clipped != st2.Clipped || mergedCount(st1) != mergedCount(st2) {
		t.Fatalf("ledgers differ: rejected %d/%d clipped %d/%d", st1.Rejected, st2.Rejected, st1.Clipped, st2.Clipped)
	}
}

// TestEagerSparseSelectionBitIdentity pins that the population's type moves
// no selection or weight: an eager client slice and the same clients behind
// a plain Population (same seed) give the same ledger, weights and rewards,
// and the tables hold a column only for clients that were dispatched.
func TestEagerSparseSelectionBitIdentity(t *testing.T) {
	pool := core.FixturePool(t)
	cfg := core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 3,
		Train:           core.FixtureTrain(),
		Seed:            29, Parallelism: 3,
	}
	rounds := 2

	eagerClients, _ := core.FixtureClients(t, 6, pool)
	eager, err := core.NewServer(cfg, eagerClients)
	if err != nil {
		t.Fatal(err)
	}
	if err := syncEngine(t, eager).Run(rounds, nil); err != nil {
		t.Fatal(err)
	}

	sparseClients, _ := core.FixtureClients(t, 6, pool)
	sparse, err := core.NewServerPopulation(cfg, plainPop(sparseClients))
	if err != nil {
		t.Fatal(err)
	}
	if err := syncEngine(t, sparse).Run(rounds, nil); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(eager.Stats(), sparse.Stats()) {
		t.Fatalf("dispatch ledgers differ:\neager  %+v\nsparse %+v", eager.Stats(), sparse.Stats())
	}
	for name, v := range eager.Global() {
		if got := sparse.Global()[name].Sum(); got != v.Sum() {
			t.Fatalf("parameter %q differs between eager and sparse runs", name)
		}
	}
	// Every reward the selection loop can read must agree bit-for-bit.
	et, st := eager.Tables(), sparse.Tables()
	for c := 0; c < 6; c++ {
		for _, m := range pool.Members {
			if a, b := et.ResourceReward(m, pool, c), st.ResourceReward(m, pool, c); a != b {
				t.Fatalf("resource reward (%s, %d): %v vs %v", m.Name(), c, a, b)
			}
			if a, b := et.CuriosityReward(m, c), st.CuriosityReward(m, c); a != b {
				t.Fatalf("curiosity reward (%s, %d): %v vs %v", m.Name(), c, a, b)
			}
		}
	}
	if st.Rows() > 6 {
		t.Fatalf("tables allocated %d columns for 6 clients", st.Rows())
	}
}

// TestEncodeOncePerCommit pins the central invariant of the encode-once
// dispatch path: per commit, the server runs exactly one codec encode per
// distinct pool member it dispatched — however many clients are in the
// cohort — and every dispatch is attributed to exactly one serving path.
// Doubling the cohort must not change the encodes a round costs.
func TestEncodeOncePerCommit(t *testing.T) {
	for _, cohort := range []int{4, 8} {
		pool := core.FixturePool(t)
		clients, _ := core.FixtureCodecClients(t, 8, pool)
		srv, err := core.NewServer(core.Config{
			Model: core.FixtureModel(), Pool: prune.Config{P: 3},
			ClientsPerRound: cohort,
			Train:           core.TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.1, Momentum: 0.5},
			Seed:            31, Codec: wire.Q8{},
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		var prev int64
		if err := syncEngine(t, srv).Run(3, func(c sched.Commit) bool {
			round := c.Round
			stats := srv.Stats()
			st := stats[len(stats)-1]
			members := map[int]bool{}
			for _, d := range st.Dispatches {
				members[d.Sent.Index] = true
			}
			if got := srv.Artifacts().Encodes() - prev; got != int64(len(members)) {
				t.Fatalf("cohort %d round %d: %d encodes for %d distinct members dispatched",
					cohort, round, got, len(members))
			}
			prev = srv.Artifacts().Encodes()
			if st.DownEncodedOnce != len(members) {
				t.Fatalf("cohort %d round %d: DownEncodedOnce = %d, want %d",
					cohort, round, st.DownEncodedOnce, len(members))
			}
			if n := st.DownEncodedOnce + st.DownReserved + st.DownNotModified; n != len(st.Dispatches) {
				t.Fatalf("cohort %d round %d: serving-path census %d != %d dispatches",
					cohort, round, n, len(st.Dispatches))
			}
			// Every dispatch beyond the first per member rode the store.
			if want := len(st.Dispatches) - len(members); st.DownReserved != want {
				t.Fatalf("cohort %d round %d: DownReserved = %d, want %d",
					cohort, round, st.DownReserved, want)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}

		// A second codec against the same snapshot costs exactly one more
		// encode per member — W members × C codecs, never W × C × cohort.
		c2 := wire.F32{}
		snap := srv.SnapshotHash()
		before := srv.Artifacts().Encodes()
		for pass := 0; pass < 2; pass++ { // second pass must be all hits
			for _, sub := range pool.Members {
				sub := sub
				key := wire.ArtifactKey{Snapshot: snap, Member: sub.Index, Codec: c2.Tag()}
				if _, err := srv.Artifacts().Get(key, c2, func() (nn.State, error) {
					return pool.ExtractState(srv.Global(), sub)
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := srv.Artifacts().Encodes() - before; got != int64(len(pool.Members)) {
			t.Fatalf("second codec cost %d encodes, want %d", got, len(pool.Members))
		}
	}
}

// plainPop hides the eager slice behind the bare Population interface, so
// NewServerPopulation takes the sparse-tables path while selection still
// runs the same full permutation eager populations use.
type plainPop []*core.Client

func (p plainPop) Len() int                  { return len(p) }
func (p plainPop) Client(c int) *core.Client { return p[c] }
