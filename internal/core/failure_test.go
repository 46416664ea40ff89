package core

import (
	"math/rand"
	"testing"

	"adaptivefl/internal/data"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
)

// TestFailedDispatchAccounting injects a device whose capacity is below
// the smallest pool member: the dispatch must be recorded as failed, waste
// the full sent size, and still update the RL tables so the selector
// learns to avoid the client.
func TestFailedDispatchAccounting(t *testing.T) {
	pool := testPool(t)
	dcfg := data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32, Train: 24, Test: 10, Noise: 0.3, Seed: 51}
	train, _ := data.Generate(dcfg)
	// One client whose device fits nothing.
	clients := []*Client{{
		ID:     0,
		Data:   train,
		Device: &Device{Class: Weak, Base: pool.Smallest().Size / 2},
	}}
	srv, err := NewServer(Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3},
		ClientsPerRound: 1, Train: quickTrain(), Seed: 52, Greedy: true,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Global().Clone()
	if err := srv.Round(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()[0]
	if len(st.Dispatches) != 1 || !st.Dispatches[0].Failed {
		t.Fatalf("expected one failed dispatch, got %+v", st.Dispatches)
	}
	if st.ReturnedParams != 0 || st.SentParams == 0 {
		t.Fatalf("failed round ledger wrong: %+v", st)
	}
	if w := CommWasteRate(srv.Stats()); w != 1 {
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
	if srv.Tables().Tr[pool.Smallest().Index][0] == 1 {
		t.Fatal("RL tables not updated after failure")
	}
}

// TestRoundWithAllLevelsAggregates drives a mixed population long enough
// that every pool level is dispatched and returned at least once. In
// -short mode a reduced round budget is used; the run is deterministic
// (fixed seed), so the smaller budget is known to still cover all levels.
func TestRoundWithAllLevelsAggregates(t *testing.T) {
	pool := testPool(t)
	clients, _ := testClients(t, 9, pool)
	srv, err := NewServer(Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3},
		ClientsPerRound: 6, Train: quickTrain(), Seed: 53,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 15
	if testing.Short() {
		rounds = 10
	}
	seen := map[prune.Level]bool{}
	for r := 0; r < rounds; r++ {
		if err := srv.Round(); err != nil {
			t.Fatal(err)
		}
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
		pool := testPool(t)
		clients, _ := testClients(t, 6, pool)
		srv, err := NewServer(Config{
			Model: testModelCfg(), Pool: prune.Config{P: 3},
			ClientsPerRound: 4, Train: quickTrain(), Seed: 54, Parallelism: par,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Run(2, nil); err != nil {
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

// TestRunCallbackStopsEarly verifies the Run callback contract.
func TestRunCallbackStopsEarly(t *testing.T) {
	pool := testPool(t)
	clients, _ := testClients(t, 6, pool)
	srv, err := NewServer(Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3},
		ClientsPerRound: 2, Train: quickTrain(), Seed: 55,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := srv.Run(10, func(round int) bool {
		calls++
		return round < 2
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || len(srv.Stats()) != 2 {
		t.Fatalf("callback stop failed: %d calls, %d rounds", calls, len(srv.Stats()))
	}
}

// TestLiteralL1BonusChangesSelection exercises the docs/FIDELITY.md deviation
// switch end to end.
func TestLiteralL1BonusChangesSelection(t *testing.T) {
	pool := testPool(t)
	clients, _ := testClients(t, 6, pool)
	mk := func(literal bool) *Server {
		srv, err := NewServer(Config{
			Model: testModelCfg(), Pool: prune.Config{P: 3},
			RL:              rlConfig(literal),
			ClientsPerRound: 3, Train: quickTrain(), Seed: 56,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	a, b := mk(false), mk(true)
	for r := 0; r < 3; r++ {
		if err := a.Round(); err != nil {
			t.Fatal(err)
		}
		if err := b.Round(); err != nil {
			t.Fatal(err)
		}
	}
	last := len(a.Pool().Members) - 1
	diff := false
	for c := 0; c < 6; c++ {
		if a.Tables().Tr[last][c] != b.Tables().Tr[last][c] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("literal L1 bonus had no effect on the resource table")
	}
}

// TestDevicePopulationDeterministic ensures NewPopulation is reproducible
// for a fixed rng seed.
func TestDevicePopulationDeterministic(t *testing.T) {
	pool := testPool(t)
	mk := func() []int64 {
		rng := rand.New(rand.NewSource(57))
		devices := NewPopulation(rng, 20, [3]float64{4, 3, 3}, pool, DefaultDeviceModel())
		out := make([]int64, len(devices))
		for i, d := range devices {
			out[i] = d.Base
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("population not deterministic")
		}
	}
}

// rlConfig builds an rl.Config with the literal-L1 switch set.
func rlConfig(literal bool) rl.Config { return rl.Config{LiteralL1Bonus: literal} }
