package rl

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/prune"
)

// This file pins the reward arithmetic to values worked out by hand from
// Algorithm 1 lines 12-26 and paper §3.3, on a five-member pool with
// p = 2 (S2 S1 M2 M1 L1 at indices 0-4). Every expected value below is
// one division, square root or product of small exact integers, so the
// comparisons are exact: a change to the tables' layout or the order of
// the reward's additions that moves a bit fails here.

// pinPool is the hand-built pool: only Index and Level matter to rl.
func pinPool() *prune.Pool {
	levels := []prune.Level{prune.LevelS, prune.LevelS, prune.LevelM, prune.LevelM, prune.LevelL}
	pool := &prune.Pool{P: 2}
	for i, l := range levels {
		pool.Members = append(pool.Members, prune.Submodel{Index: i, Level: l})
	}
	return pool
}

// rewards is one client's expected (R_s, R_c, R) per level S, M, L.
type rewards struct{ rs, rc, r [prune.NumLevels]float64 }

func checkRewards(t *testing.T, tb *Tables, pool *prune.Pool, c int, want rewards) {
	t.Helper()
	for _, m := range pool.Members {
		if got := tb.ResourceReward(m, pool, c); got != want.rs[m.Level] {
			t.Errorf("client %d: R_s(%v member %d) = %v, want %v", c, m.Level, m.Index, got, want.rs[m.Level])
		}
		if got := tb.CuriosityReward(m, c); got != want.rc[m.Level] {
			t.Errorf("client %d: R_c(%v member %d) = %v, want %v", c, m.Level, m.Index, got, want.rc[m.Level])
		}
		if got := tb.Reward(m, pool, c); got != want.r[m.Level] {
			t.Errorf("client %d: R(%v member %d) = %v, want %v", c, m.Level, m.Index, got, want.r[m.Level])
		}
	}
}

func TestRewardsOnHandComputedTables(t *testing.T) {
	pool := pinPool()
	m := pool.Members
	inv3, inv2 := 1/math.Sqrt(3), 1/math.Sqrt(2)
	tb := NewTables(Config{}, 2, 5, 6)

	// Untouched: T_r = [1 1 1 1 1], mass 5, suffix sums 5 4 3 2 1.
	untouched := rewards{
		rs: [3]float64{9.0 / 10, 5.0 / 10, 1.0 / 5},
		rc: [3]float64{1, 1, 1},
		r:  [3]float64{0.5, 0.5, 1.0 / 5},
	}
	checkRewards(t, tb, pool, 5, untouched)

	// Client 0, unpruned M2 → M2: T_c[M] = 3; T_r = [1 1 2 2 2] plus the
	// p−1 = 1 bonus on M2 → [1 1 3 2 2], mass 9, suffix sums 9 8 7 4 2.
	tb.RecordDispatch(m[2], m[2], 0)
	checkRewards(t, tb, pool, 0, rewards{
		rs: [3]float64{17.0 / 18, 11.0 / 18, 2.0 / 9},
		rc: [3]float64{1, inv3, 1},
		r:  [3]float64{0.5, 0.5 * inv3, 2.0 / 9},
	})

	// Client 1, pruned L1 → S1: T_c[L] = T_c[S] = 2; T_r[S1] += p → 3,
	// then S1..L1 lose 0, 1, 2, 3 floored at 0 → [1 3 0 0 0], mass 4,
	// suffix sums 4 3 0 0 0. M and L hold zero mass: R_s and R are 0.
	tb.RecordDispatch(m[4], m[1], 1)
	checkRewards(t, tb, pool, 1, rewards{
		rs: [3]float64{7.0 / 8, 0, 0},
		rc: [3]float64{inv2, 1, inv2},
		r:  [3]float64{0.5 * inv2, 0, 0},
	})

	// Client 1 again, pruned M1 → S2: T_c[M] = 2, T_c[S] = 3; T_r[S2] += p
	// → 3, then S2..L1 lose 0, 1, 2, 3 → [3 2 0 0 0], mass 5, suffix sums
	// 5 2 0 0 0.
	tb.RecordDispatch(m[3], m[0], 1)
	client1 := rewards{
		rs: [3]float64{7.0 / 10, 0, 0},
		rc: [3]float64{inv3, inv2, inv2},
		r:  [3]float64{0.5 * inv3, 0, 0},
	}
	checkRewards(t, tb, pool, 1, client1)

	// Client 2, unpruned L1 twice: T_c[L] = 5; T_r[L1] gains 1 + (p−1)
	// per dispatch → [1 1 1 1 5], mass 9, suffix sums 9 8 7 6 5.
	tb.RecordDispatch(m[4], m[4], 2)
	tb.RecordDispatch(m[4], m[4], 2)
	checkRewards(t, tb, pool, 2, rewards{
		rs: [3]float64{17.0 / 18, 13.0 / 18, 5.0 / 9},
		rc: [3]float64{1, 1, 1 / math.Sqrt(5)},
		r:  [3]float64{0.5, 0.5, 0.5 / math.Sqrt(5)},
	})

	// Other clients' columns did not move.
	checkRewards(t, tb, pool, 5, untouched)
	checkRewards(t, tb, pool, 1, client1)

	// The literal reading of line 18 puts the p−1 bonus on L1: unpruned
	// M2 → M2 gives T_r = [1 1 2 2 3], mass 9, suffix sums 9 8 7 5 3.
	lit := NewTables(Config{LiteralL1Bonus: true}, 2, 5, 2)
	lit.RecordDispatch(m[2], m[2], 1)
	checkRewards(t, lit, pool, 1, rewards{
		rs: [3]float64{17.0 / 18, 12.0 / 18, 3.0 / 9},
		rc: [3]float64{1, inv3, 1},
		r:  [3]float64{0.5, 0.5 * inv3, 1.0 / 3},
	})
	// The pruned path ignores LiteralL1Bonus.
	lit.RecordDispatch(m[4], m[1], 0)
	checkRewards(t, lit, pool, 0, rewards{
		rs: [3]float64{7.0 / 8, 0, 0},
		rc: [3]float64{inv2, 1, inv2},
		r:  [3]float64{0.5 * inv2, 0, 0},
	})
}

// TestSelectionDistributionOnHandComputedTables pins P(m, c) =
// R(m, c)/Σ_j R(m, j): TrySelectClient draws one u = rng.Float64() and
// returns the first candidate whose cumulative weight exceeds u·Σ, so for
// every seed its pick must match that walk over the hand-computed weights,
// and it must consume exactly one draw.
func TestSelectionDistributionOnHandComputedTables(t *testing.T) {
	pool := pinPool()
	m := pool.Members
	inv3 := 1 / math.Sqrt(3)
	tb := NewTables(Config{}, 2, 5, 6)
	tb.RecordDispatch(m[2], m[2], 0) // as in TestRewardsOnHandComputedTables
	tb.RecordDispatch(m[4], m[1], 1)
	tb.RecordDispatch(m[3], m[0], 1)
	tb.RecordDispatch(m[4], m[1], 3) // zero mass at M and L, as client 1
	candidates := []int{0, 1, 5}

	cases := []struct {
		mode    Mode
		member  prune.Submodel
		weights []float64
	}{
		{ModeCS, m[1], []float64{0.5, 0.5 * inv3, 0.5}},
		{ModeCS, m[2], []float64{0.5 * inv3, 0, 0.5}},
		{ModeCS, m[4], []float64{2.0 / 9, 0, 1.0 / 5}},
		{ModeC, m[3], []float64{inv3, 1 / math.Sqrt(2), 1}},
		{ModeS, m[0], []float64{17.0 / 18, 7.0 / 10, 9.0 / 10}},
	}
	for _, tc := range cases {
		sum := 0.0
		for _, w := range tc.weights {
			sum += w
		}
		for seed := int64(0); seed < 64; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ref := rand.New(rand.NewSource(seed))
			r := ref.Float64() * sum
			want := candidates[len(candidates)-1]
			for i, w := range tc.weights {
				r -= w
				if r < 0 {
					want = candidates[i]
					break
				}
			}
			got, ok := tb.TrySelectClient(rng, tc.mode, tc.member, pool, candidates)
			if !ok || got != want {
				t.Fatalf("%v member %d seed %d: picked %d (ok=%v), want %d", tc.mode, tc.member.Index, seed, got, ok, want)
			}
			if rng.Int63() != ref.Int63() {
				t.Fatalf("%v member %d seed %d: selection consumed more than one draw", tc.mode, tc.member.Index, seed)
			}
		}
	}

	// Zero mass at and above M for every candidate: Σ R = 0, so the draw
	// is uniform through Intn.
	zero := []int{1, 3}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := rand.New(rand.NewSource(seed))
		want := zero[ref.Intn(len(zero))]
		if got, _ := tb.TrySelectClient(rng, ModeCS, m[3], pool, zero); got != want {
			t.Fatalf("seed %d: zero-mass pick %d, want %d", seed, got, want)
		}
		if rng.Int63() != ref.Int63() {
			t.Fatalf("seed %d: zero-mass selection did not draw through Intn", seed)
		}
	}
}
