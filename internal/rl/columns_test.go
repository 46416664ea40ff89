package rl

import (
	"math/rand"
	"testing"
)

// TestColumnStoreAllocatesOnDispatch pins the tables' one layout: reads of
// a client never dispatched see the initial 1 and allocate no column, and
// Rows counts exactly the clients RecordDispatch has touched.
func TestColumnStoreAllocatesOnDispatch(t *testing.T) {
	pool := testPool(t)
	const n = 12
	tb := NewTables(Config{}, pool.P, len(pool.Members), n)
	rng := rand.New(rand.NewSource(9))
	touched := map[int]bool{}
	for step := 0; step < 200; step++ {
		c := rng.Intn(n - 2) // leave clients n-2, n-1 untouched
		sent := pool.Members[rng.Intn(len(pool.Members))]
		got := sent
		if rng.Float64() < 0.5 {
			got = pool.Members[rng.Intn(sent.Index+1)] // local pruning
		}
		tb.RecordDispatch(sent, got, c)
		touched[c] = true
	}
	if got := tb.Rows(); got != len(touched) {
		t.Fatalf("tables hold %d columns, %d clients were dispatched", got, len(touched))
	}

	for c := n - 2; c < n; c++ {
		for _, m := range pool.Members {
			if tb.Tr(m.Index, c) != 1 || tb.Tc(m.Level, c) != 1 {
				t.Fatalf("untouched client %d reads Tr %v Tc %v, want 1", c, tb.Tr(m.Index, c), tb.Tc(m.Level, c))
			}
			tb.Reward(m, pool, c)
		}
		tb.SelectClient(rng, ModeCS, pool.Largest(), pool, []int{c, 0})
	}
	if got := tb.Rows(); got != len(touched) {
		t.Fatalf("reads allocated columns: %d held, %d clients dispatched", got, len(touched))
	}
}

// TestRewardDoesNotAllocate pins Reward at 0 allocations for a dispatched
// and an untouched client: it reads one column and keeps its suffix sums
// on the stack.
func TestRewardDoesNotAllocate(t *testing.T) {
	pool := testPool(t)
	tb := NewTables(Config{}, pool.P, len(pool.Members), 4)
	tb.RecordDispatch(pool.Largest(), pool.Members[2], 0)
	for _, c := range []int{0, 3} {
		for _, m := range pool.Members {
			if a := testing.AllocsPerRun(100, func() { tb.Reward(m, pool, c) }); a != 0 {
				t.Fatalf("Reward(%s, client %d) allocates %v times", m.Name(), c, a)
			}
		}
	}
}
