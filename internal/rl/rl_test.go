package rl

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/models"
	"adaptivefl/internal/prune"
)

func testPool(t *testing.T) *prune.Pool {
	t.Helper()
	pool, err := prune.BuildPool(models.Config{Arch: models.VGG16, NumClasses: 10, WidthScale: 0.25}, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func member(t *testing.T, pool *prune.Pool, name string) prune.Submodel {
	t.Helper()
	for _, m := range pool.Members {
		if m.Name() == name {
			return m
		}
	}
	t.Fatalf("no pool member %s", name)
	return prune.Submodel{}
}

func TestNewTablesInitialisedToOne(t *testing.T) {
	tb := NewTables(Config{}, 3, 7, 5)
	for c := 0; c < 5; c++ {
		for l := prune.Level(0); l < prune.NumLevels; l++ {
			if tb.Tc(l, c) != 1 {
				t.Fatal("Tc not initialised to 1")
			}
		}
		for i := 0; i < 7; i++ {
			if tb.Tr(i, c) != 1 {
				t.Fatal("Tr not initialised to 1")
			}
		}
	}
	if tb.NumClients() != 5 {
		t.Fatalf("NumClients = %d", tb.NumClients())
	}
}

func TestRecordDispatchUnprunedReturn(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 3)
	m2 := member(t, pool, "M2")
	tb.RecordDispatch(m2, m2, 0)

	// Curiosity: level M counted twice (sent and returned).
	if tb.Tc(prune.LevelM, 0) != 3 {
		t.Fatalf("Tc[M][0] = %v, want 3", tb.Tc(prune.LevelM, 0))
	}
	// Resource: +1 for every member from M2 upward, +p−1 extra on M2.
	for _, m := range pool.Members {
		want := 1.0
		if m.Index >= m2.Index {
			want = 2
		}
		if m.Index == m2.Index {
			want = 2 + float64(pool.P-1)
		}
		if got := tb.Tr(m.Index, 0); got != want {
			t.Errorf("Tr[%s][0] = %v, want %v", m.Name(), got, want)
		}
	}
}

func TestRecordDispatchUnprunedLiteralL1(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{LiteralL1Bonus: true}, pool.P, len(pool.Members), 2)
	s1 := member(t, pool, "S1")
	tb.RecordDispatch(s1, s1, 1)
	l1 := pool.Largest()
	// Literal Alg.1 line 18: the L1 row takes the p−1 bonus.
	if got := tb.Tr(l1.Index, 1); got != 1+1+float64(pool.P-1) {
		t.Fatalf("Tr[L1] = %v, want %v", got, 1+1+float64(pool.P-1))
	}
	if got := tb.Tr(s1.Index, 1); got != 2 {
		t.Fatalf("Tr[S1] = %v, want 2", got)
	}
}

func TestRecordDispatchPrunedReturn(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 2)
	l1 := pool.Largest()
	s2 := member(t, pool, "S2")
	tb.RecordDispatch(l1, s2, 0)

	// Curiosity: L and S levels each +1.
	if tb.Tc(prune.LevelL, 0) != 2 || tb.Tc(prune.LevelS, 0) != 2 {
		t.Fatalf("Tc rows = L:%v S:%v", tb.Tc(prune.LevelL, 0), tb.Tc(prune.LevelS, 0))
	}
	// Resource: S2 row net +p; members above S2 penalised by 1, 2, 3, …
	// (floored at 0 from the initial value 1).
	if got := tb.Tr(s2.Index, 0); got != 1+float64(pool.P) {
		t.Fatalf("Tr[S2] = %v, want %v", got, 1+float64(pool.P))
	}
	for _, m := range pool.Members {
		if m.Index <= s2.Index {
			continue
		}
		tau := float64(m.Index - s2.Index)
		want := math.Max(1-tau, 0)
		if got := tb.Tr(m.Index, 0); got != want {
			t.Errorf("Tr[%s] = %v, want %v", m.Name(), got, want)
		}
	}
	// Untouched client unchanged.
	if tb.Tr(s2.Index, 1) != 1 {
		t.Fatal("other client's row was modified")
	}
}

func TestResourceRewardFavoursCapableClient(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 2)
	l1 := pool.Largest()
	s3 := pool.Smallest()
	// Client 0 keeps returning L1 unpruned; client 1 keeps pruning to S3.
	for i := 0; i < 5; i++ {
		tb.RecordDispatch(l1, l1, 0)
		tb.RecordDispatch(l1, s3, 1)
	}
	rs0 := tb.ResourceReward(l1, pool, 0)
	rs1 := tb.ResourceReward(l1, pool, 1)
	if rs0 <= rs1 {
		t.Fatalf("R_s(L1): capable client %v should beat weak client %v", rs0, rs1)
	}
	// The weak client's L1 reward collapses towards zero (its score mass
	// sits entirely at S3), which is what prevents wasted large dispatches.
	if rs1 > 0.1 {
		t.Fatalf("R_s(L1) for weak client = %v, want near 0", rs1)
	}
	// For small models R_s stays high for both (the strong client can also
	// train S models); the 0.5 success cap plus curiosity — not R_s —
	// keeps strong clients from monopolising small dispatches.
	rsS0 := tb.ResourceReward(s3, pool, 0)
	rsS1 := tb.ResourceReward(s3, pool, 1)
	if rsS0 < 0.3 || rsS1 < 0.3 {
		t.Fatalf("R_s(S3) should stay substantial for both: strong %v, weak %v", rsS0, rsS1)
	}
	capped0 := tb.Reward(s3, pool, 0)
	if capped0 > 0.5+1e-12 {
		t.Fatalf("capped reward %v exceeds 0.5", capped0)
	}
}

func TestResourceRewardBounded(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		sent := pool.Members[rng.Intn(len(pool.Members))]
		got, ok := pool.LargestFit(sent, pool.Members[rng.Intn(len(pool.Members))].Size)
		if !ok {
			got = pool.Smallest()
		}
		tb.RecordDispatch(sent, got, 0)
		for _, m := range pool.Members {
			rs := tb.ResourceReward(m, pool, 0)
			if rs < 0 || rs > 1+1e-9 {
				t.Fatalf("R_s out of [0,1]: %v", rs)
			}
		}
	}
}

func TestCuriosityRewardDecays(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 2)
	m1 := member(t, pool, "M1")
	before := tb.CuriosityReward(m1, 0)
	tb.RecordDispatch(m1, m1, 0)
	after := tb.CuriosityReward(m1, 0)
	if after >= before {
		t.Fatalf("curiosity should decay with selections: %v -> %v", before, after)
	}
	// MBIE-EB form: 1/sqrt(count).
	if math.Abs(before-1) > 1e-12 {
		t.Fatalf("initial curiosity = %v, want 1", before)
	}
	if math.Abs(after-1/math.Sqrt(3)) > 1e-12 {
		t.Fatalf("after = %v, want 1/sqrt(3)", after)
	}
}

func TestRewardCapsSuccessRate(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 1)
	l1 := pool.Largest()
	for i := 0; i < 30; i++ {
		tb.RecordDispatch(l1, l1, 0)
	}
	rs := tb.ResourceReward(l1, pool, 0)
	if rs <= 0.5 {
		t.Fatalf("premise broken: R_s = %v should exceed the cap", rs)
	}
	want := 0.5 * tb.CuriosityReward(l1, 0)
	if got := tb.Reward(l1, pool, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Reward = %v, want capped %v", got, want)
	}
}

func TestSelectClientDistribution(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 3)
	l1 := pool.Largest()
	s3 := pool.Smallest()
	// Client 0 trains L1 fine; clients 1 and 2 always collapse to S3.
	for i := 0; i < 10; i++ {
		tb.RecordDispatch(l1, l1, 0)
		tb.RecordDispatch(l1, s3, 1)
		tb.RecordDispatch(l1, s3, 2)
	}
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[tb.SelectClient(rng, ModeCS, l1, pool, []int{0, 1, 2})]++
	}
	if counts[0] <= counts[1] || counts[0] <= counts[2] {
		t.Fatalf("capable client should be selected most for L1: %v", counts)
	}
}

func TestSelectClientRandomUniform(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 4)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[tb.SelectClient(rng, ModeRandom, pool.Largest(), pool, []int{0, 1, 2, 3})]++
	}
	for c, n := range counts {
		if math.Abs(float64(n)-2000) > 250 {
			t.Fatalf("ModeRandom client %d selected %d times, want ~2000", c, n)
		}
	}
}

func TestSelectClientRespectsCandidates(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 5)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		got := tb.SelectClient(rng, ModeCS, pool.Largest(), pool, []int{1, 3})
		if got != 1 && got != 3 {
			t.Fatalf("selected %d outside candidate set", got)
		}
	}
}

// TestTrySelectClientToleratesEmptyCandidates pins the non-panicking path
// an availability-trace scheduler relies on: every client can be offline
// or in flight, and selection must report that instead of crashing.
func TestTrySelectClientToleratesEmptyCandidates(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 5)
	rng := rand.New(rand.NewSource(5))
	for _, mode := range []Mode{ModeCS, ModeC, ModeS, ModeRandom} {
		if _, ok := tb.TrySelectClient(rng, mode, pool.Largest(), pool, nil); ok {
			t.Fatalf("mode %v: empty candidate set reported a selection", mode)
		}
	}
	got, ok := tb.TrySelectClient(rng, ModeCS, pool.Largest(), pool, []int{2})
	if !ok || got != 2 {
		t.Fatalf("single candidate: got %d ok=%v", got, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SelectClient must still panic on an empty candidate set")
		}
	}()
	tb.SelectClient(rng, ModeCS, pool.Largest(), pool, nil)
}

func TestModeStrings(t *testing.T) {
	if ModeCS.String() != "RL-CS" || ModeC.String() != "RL-C" || ModeS.String() != "RL-S" || ModeRandom.String() != "Random" {
		t.Fatal("mode names changed")
	}
}
