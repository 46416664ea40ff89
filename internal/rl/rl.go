// Package rl implements AdaptiveFL's reinforcement-learning-based client
// selection (paper §3.3): a curiosity table T_c counting how often each
// client was touched per size level, a resource table T_r scoring each
// (pool member, client) pair from dispatch/return history, the resource
// and curiosity rewards, and the sampling distribution P(m, c). Both tables
// are kept per client, in one column allocated at its first dispatch.
package rl

import (
	"fmt"
	"math"
	"math/rand"

	"adaptivefl/internal/prune"
)

// successCap caps the resource reward R_s in Reward at the paper's 50 %
// (§3.3). R_s estimates how likely a client is to train a member; past an
// even chance the client counts as able, and choosing among able clients
// is left to curiosity, so well-resourced clients cannot monopolise
// selection.
const successCap = 0.5

// Config tunes the selection strategy.
type Config struct {
	// LiteralL1Bonus applies Algorithm 1 line 18 exactly as printed
	// (T_r[L_1] += p−1 after an unpruned return). The default false uses
	// the symmetric reading T_r[m] += p−1, which preserves the capacity
	// signal; see docs/FIDELITY.md.
	LiteralL1Bonus bool
}

// maxPool bounds the pool size, so ResourceReward can keep its suffix sums
// on the stack; a pool has 2p+1 members, p at most an architecture's
// I-choices (three for every model here).
const maxPool = 64

// Tables holds the two RL tables for a fixed pool and client population.
// Each client's entries of both tables live in one column, allocated at the
// client's first RecordDispatch, so a million-client population pays for
// the clients ever dispatched rather than the population. Every table
// entry starts at 1 (Algorithm 1 lines 1-2), so an untouched client reads
// the shared all-ones column.
type Tables struct {
	cfg Config
	p   int
	n   int // client population size
	// cols maps a client to its column: T_c by level, then T_r by pool
	// member in ascending pool order. All table arithmetic is
	// column-local.
	cols map[int][]float64
	// fresh is the all-ones column untouched clients read; never written.
	fresh []float64
}

// NewTables builds tables whose entries all read 1, as Algorithm 1 lines
// 1-2 initialise them; no client's column is allocated yet.
func NewTables(cfg Config, p, poolSize, numClients int) *Tables {
	if poolSize > maxPool {
		panic(fmt.Sprintf("rl: pool of %d members exceeds %d", poolSize, maxPool))
	}
	fresh := make([]float64, prune.NumLevels+poolSize)
	for i := range fresh {
		fresh[i] = 1
	}
	return &Tables{cfg: cfg, p: p, n: numClients, cols: map[int][]float64{}, fresh: fresh}
}

// NewSparseTables is NewTables. It is kept for the bench module's RL
// probe, which still calls it by this name.
func NewSparseTables(cfg Config, p, poolSize, numClients int) *Tables {
	return NewTables(cfg, p, poolSize, numClients)
}

// NumClients returns the client population size the tables cover.
func (t *Tables) NumClients() int { return t.n }

// Rows returns the number of allocated client columns, the clients ever
// dispatched (the memory-envelope stat the million-client smoke checks).
func (t *Tables) Rows() int { return len(t.cols) }

// column returns client c's column for reading: the shared all-ones
// column if c was never dispatched.
func (t *Tables) column(c int) []float64 {
	if cl, ok := t.cols[c]; ok {
		return cl
	}
	return t.fresh
}

// Tc returns T_c[level][c], client c's selection count at a size level.
func (t *Tables) Tc(level prune.Level, c int) float64 { return t.column(c)[level] }

// Tr returns T_r[i][c], client c's training score for pool member i.
func (t *Tables) Tr(i, c int) float64 { return t.column(c)[prune.NumLevels+i] }

// RecordDispatch applies Algorithm 1 lines 12-26 after client c was sent
// submodel sent and returned submodel got (got == sent when the device did
// not prune locally).
func (t *Tables) RecordDispatch(sent, got prune.Submodel, c int) {
	if c < 0 || c >= t.NumClients() {
		panic(fmt.Sprintf("rl: client %d out of range", c))
	}
	cl, ok := t.cols[c]
	if !ok {
		cl = append([]float64(nil), t.fresh...)
		t.cols[c] = cl
	}
	tc, tr := cl[:prune.NumLevels], cl[prune.NumLevels:]
	tc[sent.Level]++
	tc[got.Level]++
	last := len(tr) - 1
	if got.Index == sent.Index {
		// No local pruning: the client's capacity is at least size(sent),
		// so every member from sent upward gains a point...
		for i := sent.Index; i <= last; i++ {
			tr[i]++
		}
		// ...and the trained member gets the p−1 bonus (or L_1, if the
		// literal reading of line 18 is requested).
		if t.cfg.LiteralL1Bonus {
			tr[last] += float64(t.p - 1)
		} else {
			tr[sent.Index] += float64(t.p - 1)
		}
		return
	}
	// Local pruning happened: capacity sits between size(got) and the next
	// larger member. Reward the returned member, progressively penalise
	// everything above it (−0, −1, −2, …, floored at 0).
	tr[got.Index] += float64(t.p)
	tau := 0.0
	for i := got.Index; i <= last; i++ {
		tr[i] = math.Max(tr[i]-tau, 0)
		tau++
	}
}

// ResourceReward computes R_s(m, c): the level-normalised share of the
// client's training score mass at or above each member of m's level.
func (t *Tables) ResourceReward(m prune.Submodel, pool *prune.Pool, c int) float64 {
	tr := t.column(c)[prune.NumLevels:]
	total := 0.0
	for _, v := range tr {
		total += v
	}
	if total <= 0 {
		return 0
	}
	// Suffix sums: tails[i] = Σ_{t=i}^{L_1} T_r[t][c].
	var tails [maxPool]float64
	tail := 0.0
	for i := len(tr) - 1; i >= 0; i-- {
		tail += tr[i]
		tails[i] = tail
	}
	num, k := 0.0, 0
	for _, lm := range pool.Members {
		if lm.Level == m.Level {
			num += tails[lm.Index]
			k++
		}
	}
	return num / (float64(k) * total)
}

// CuriosityReward computes R_c(m, c) = 1/√T_c[level(m)][c] (MBIE-EB).
func (t *Tables) CuriosityReward(m prune.Submodel, c int) float64 {
	return 1 / math.Sqrt(t.Tc(m.Level, c))
}

// Reward combines the two: R = min(cap, R_s) · R_c (paper's 50% success
// cap keeps well-resourced clients from monopolising selection).
func (t *Tables) Reward(m prune.Submodel, pool *prune.Pool, c int) float64 {
	rs := math.Min(successCap, t.ResourceReward(m, pool, c))
	return rs * t.CuriosityReward(m, c)
}

// Mode selects which reward signals drive SelectClient, supporting the
// paper's ablation variants (Figure 5).
type Mode int

// Selection modes.
const (
	ModeCS     Mode = iota // resource × curiosity (AdaptiveFL default)
	ModeC                  // curiosity only
	ModeS                  // resource only
	ModeRandom             // uniform random
)

// String names the mode as in the paper's ablation ("RL-CS" etc.).
func (m Mode) String() string {
	switch m {
	case ModeCS:
		return "RL-CS"
	case ModeC:
		return "RL-C"
	case ModeS:
		return "RL-S"
	case ModeRandom:
		return "Random"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// SelectClient samples a client for submodel m from the candidates
// according to P(m, c) = R(m, c)/Σ_j R(m, j). Candidates must be non-empty;
// if every reward is zero the choice is uniform.
func (t *Tables) SelectClient(rng *rand.Rand, mode Mode, m prune.Submodel, pool *prune.Pool, candidates []int) int {
	c, ok := t.TrySelectClient(rng, mode, m, pool, candidates)
	if !ok {
		panic("rl: SelectClient with no candidates")
	}
	return c
}

// TrySelectClient is SelectClient for callers whose candidate set can
// legitimately be empty — an availability-trace scheduler may find every
// client offline or already in flight. It reports false instead of
// panicking in that case, and otherwise samples exactly as SelectClient.
func (t *Tables) TrySelectClient(rng *rand.Rand, mode Mode, m prune.Submodel, pool *prune.Pool, candidates []int) (int, bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	if mode == ModeRandom {
		return candidates[rng.Intn(len(candidates))], true
	}
	weights := make([]float64, len(candidates))
	sum := 0.0
	for i, c := range candidates {
		var w float64
		switch mode {
		case ModeCS:
			w = t.Reward(m, pool, c)
		case ModeC:
			w = t.CuriosityReward(m, c)
		case ModeS:
			w = t.ResourceReward(m, pool, c)
		}
		weights[i] = w
		sum += w
	}
	if sum <= 0 {
		return candidates[rng.Intn(len(candidates))], true
	}
	r := rng.Float64() * sum
	for i, w := range weights {
		r -= w
		if r < 0 {
			return candidates[i], true
		}
	}
	return candidates[len(candidates)-1], true
}
