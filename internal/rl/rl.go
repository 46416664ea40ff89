// Package rl implements AdaptiveFL's reinforcement-learning-based client
// selection (paper §3.3): a curiosity table T_c counting how often each
// client was touched per size level, a resource table T_r scoring each
// (pool member, client) pair from dispatch/return history, the resource
// and curiosity rewards, and the sampling distribution P(m, c).
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

// Tables holds the two RL tables for a fixed pool and client population.
// The dense layout allocates both tables up front (the legacy path, and
// what the exported fields expose); NewSparseTables instead backs the same
// arithmetic with a per-client column store allocated on first touch, so
// million-client populations pay for the clients ever selected rather
// than the population. Every table entry starts at 1 either way, so a
// never-touched sparse column reads exactly as a fresh dense one.
type Tables struct {
	cfg  Config
	p    int
	pool int // pool size (2p+1)
	n    int // client population size
	// Tc[level][client] — selection counts per size level (3 rows). Nil in
	// sparse mode.
	Tc [][]float64
	// Tr[member][client] — training scores per pool member, rows in
	// ascending pool order. Nil in sparse mode.
	Tr [][]float64
	// cols is the sparse per-client column store (nil in dense mode): each
	// column holds one client's Tc and Tr entries. All table arithmetic is
	// column-local, which is what makes the sparse form bit-identical.
	cols map[int]*col
}

// col is one client's column of both tables.
type col struct {
	tc []float64 // by level
	tr []float64 // by pool member
}

// NewTables initialises both tables to 1, as Algorithm 1 lines 1-2 do.
func NewTables(cfg Config, p, poolSize, numClients int) *Tables {
	t := newTables(cfg, p, poolSize, numClients)
	t.Tc = make([][]float64, prune.NumLevels)
	for i := range t.Tc {
		t.Tc[i] = ones(numClients)
	}
	t.Tr = make([][]float64, poolSize)
	for i := range t.Tr {
		t.Tr[i] = ones(numClients)
	}
	return t
}

// NewSparseTables builds map-backed tables whose per-client columns
// allocate on first write. Reads of untouched clients see the same
// all-ones initial state dense tables start from, and every update and
// reward is column-local, so selection under a fixed rng stream is
// bit-identical to the dense form (the allocation audit test pins this).
func NewSparseTables(cfg Config, p, poolSize, numClients int) *Tables {
	t := newTables(cfg, p, poolSize, numClients)
	t.cols = map[int]*col{}
	return t
}

func newTables(cfg Config, p, poolSize, numClients int) *Tables {
	return &Tables{cfg: cfg, p: p, pool: poolSize, n: numClients}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// NumClients returns the client population size the tables cover.
func (t *Tables) NumClients() int { return t.n }

// Sparse reports whether the tables use the lazily allocated column store.
func (t *Tables) Sparse() bool { return t.cols != nil }

// Rows returns the number of allocated client columns: the population in
// dense mode, the touched-client count in sparse mode (the memory-envelope
// stat the million-client smoke checks).
func (t *Tables) Rows() int {
	if t.cols != nil {
		return len(t.cols)
	}
	return t.n
}

// colFor returns client c's mutable column, allocating the initial
// all-ones column on first write. Dense mode never calls it.
func (t *Tables) colFor(c int) *col {
	cl, ok := t.cols[c]
	if !ok {
		cl = &col{tc: ones(prune.NumLevels), tr: ones(t.pool)}
		t.cols[c] = cl
	}
	return cl
}

// tcAt / trAt read one table entry in either mode; absent sparse columns
// read the initial 1.
func (t *Tables) tcAt(level prune.Level, c int) float64 {
	if t.Tc != nil {
		return t.Tc[level][c]
	}
	if cl, ok := t.cols[c]; ok {
		return cl.tc[level]
	}
	return 1
}

func (t *Tables) trAt(i, c int) float64 {
	if t.Tr != nil {
		return t.Tr[i][c]
	}
	if cl, ok := t.cols[c]; ok {
		return cl.tr[i]
	}
	return 1
}

// RecordDispatch applies Algorithm 1 lines 12-26 after client c was sent
// submodel sent and returned submodel got (got == sent when the device did
// not prune locally).
func (t *Tables) RecordDispatch(sent, got prune.Submodel, c int) {
	if c < 0 || c >= t.NumClients() {
		panic(fmt.Sprintf("rl: client %d out of range", c))
	}
	// Resolve client c's mutable column in either mode. The dense rows are
	// laid out [row][client], so the "column" here is a pair of tiny
	// accessor closures; the arithmetic below is shared verbatim.
	tc, tr := t.Tc, t.Tr
	var cc *col
	if t.cols != nil {
		cc = t.colFor(c)
	}
	addTc := func(level prune.Level, d float64) {
		if cc != nil {
			cc.tc[level] += d
		} else {
			tc[level][c] += d
		}
	}
	addTr := func(i int, d float64) {
		if cc != nil {
			cc.tr[i] += d
		} else {
			tr[i][c] += d
		}
	}
	setTr := func(i int, v float64) {
		if cc != nil {
			cc.tr[i] = v
		} else {
			tr[i][c] = v
		}
	}
	addTc(sent.Level, 1)
	addTc(got.Level, 1)
	last := t.pool - 1
	if got.Index == sent.Index {
		// No local pruning: the client's capacity is at least size(sent),
		// so every member from sent upward gains a point...
		for i := sent.Index; i <= last; i++ {
			addTr(i, 1)
		}
		// ...and the trained member gets the p−1 bonus (or L_1, if the
		// literal reading of line 18 is requested).
		if t.cfg.LiteralL1Bonus {
			addTr(last, float64(t.p-1))
		} else {
			addTr(sent.Index, float64(t.p-1))
		}
		return
	}
	// Local pruning happened: capacity sits between size(got) and the next
	// larger member. Reward the returned member, progressively penalise
	// everything above it (−0, −1, −2, …, floored at 0).
	addTr(got.Index, float64(t.p))
	tau := 0.0
	for i := got.Index; i <= last; i++ {
		setTr(i, math.Max(t.trAt(i, c)-tau, 0))
		tau++
	}
}

// ResourceReward computes R_s(m, c): the level-normalised share of the
// client's training score mass at or above each member of m's level.
func (t *Tables) ResourceReward(m prune.Submodel, pool *prune.Pool, c int) float64 {
	total := 0.0
	for i := 0; i < t.pool; i++ {
		total += t.trAt(i, c)
	}
	if total <= 0 {
		return 0
	}
	// Suffix sums: tail[i] = Σ_{t=i}^{L_1} T_r[t][c].
	tail := 0.0
	tails := make([]float64, t.pool)
	for i := t.pool - 1; i >= 0; i-- {
		tail += t.trAt(i, c)
		tails[i] = tail
	}
	levelMembers := pool.ByLevel(m.Level)
	num := 0.0
	for _, lm := range levelMembers {
		num += tails[lm.Index]
	}
	return num / (float64(len(levelMembers)) * total)
}

// CuriosityReward computes R_c(m, c) = 1/√T_c[level(m)][c] (MBIE-EB).
func (t *Tables) CuriosityReward(m prune.Submodel, c int) float64 {
	return 1 / math.Sqrt(t.tcAt(m.Level, c))
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
