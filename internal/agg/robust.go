// Robust aggregation policies: composable Byzantine-resilient
// alternatives to the plain weighted mean, adapted to AdaptiveFL's
// heterogeneous prefix-block updates. Trimming and Krum scoring only ever
// consider the elements each width actually covers; where coverage is too
// thin to be robust the policies fall back to the weighted mean, so an
// attack-free run aggregates exactly like Aggregate does.
package agg

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/spec"
	"adaptivefl/internal/tensor"
)

// Policy merges a set of heterogeneous updates into a new global state.
// Implementations must be deterministic in (global, updates) — the
// serial-vs-parallel bit-identity property covers every policy.
type Policy interface {
	Name() string
	Aggregate(global nn.State, updates []Update) (nn.State, error)
}

// Mean is the default policy: the paper's weighted prefix mean
// (Aggregate), named so a ledger can report it.
type Mean struct{}

// Name implements Policy.
func (Mean) Name() string { return "mean" }

// Aggregate implements Policy.
func (Mean) Aggregate(global nn.State, updates []Update) (nn.State, error) {
	return Aggregate(global, updates)
}

// TrimmedMean is the coordinate-wise trimmed mean: per element, the
// t = ⌊Frac·n⌋ smallest and largest covering values are discarded (t
// taken from the total update count n — attackers reach every element
// they cover) and the remainder averaged (unweighted — robustness comes
// from rank order, and sample-count weights are attacker-controlled).
// Elements whose coverage is too thin to trim (fewer than 2t+1 covering
// updates, including every element only one update covers) fall back to
// the weighted mean, so a deep prefix coordinate never goes
// un-aggregated just because few widths reach it.
type TrimmedMean struct {
	// Frac is the per-side trim fraction in [0, 0.5).
	Frac float64
}

// Name implements Policy.
func (p TrimmedMean) Name() string {
	return spec.NewBuilder("trim").Float("frac", p.Frac).String()
}

// Aggregate implements Policy.
func (p TrimmedMean) Aggregate(global nn.State, updates []Update) (nn.State, error) {
	if p.Frac < 0 || p.Frac >= 0.5 {
		return nil, fmt.Errorf("agg: trim fraction %v outside [0, 0.5)", p.Frac)
	}
	// The trim count comes from the full update count, not per-element
	// coverage: an attacker controls ⌊Frac·n⌋ of the n updates wherever
	// they reach, so elements fewer than 2t+1 updates cover cannot be
	// trimmed safely and fall back to the weighted mean.
	trim := int(p.Frac * float64(len(updates)))
	return perTensor(global, updates, func(g *tensor.Tensor, covering []coveredTensor) *tensor.Tensor {
		res := g.Clone()
		ts := make([]*tensor.Tensor, 1, 1+len(covering))
		ts[0] = res
		for _, cv := range covering {
			ts = append(ts, cv.t)
		}
		vals := make([]float64, 0, len(covering))
		eachRow(ts, func(rows [][]float64) {
			dst := rows[0]
			for j := range dst {
				vals = vals[:0]
				var wsum, wval float64
				for k, r := range rows[1:] {
					if j < len(r) {
						v, w := r[j], covering[k].weight
						vals = append(vals, v)
						wsum += w
						wval += w * v
					}
				}
				if len(vals) == 0 {
					continue
				}
				if 2*trim >= len(vals) {
					// Coverage too thin to trim: weighted mean, exactly
					// what Aggregate computes for this element.
					dst[j] = wval / wsum
					continue
				}
				sort.Float64s(vals)
				sum := 0.0
				for _, v := range vals[trim : len(vals)-trim] {
					sum += v
				}
				dst[j] = sum / float64(len(vals)-2*trim)
			}
		})
		return res
	})
}

// eachRow sweeps the first tensor's rows — every index of all dimensions
// but the last, in row-major order — and calls fn with the matching row
// of every tensor, nil where the row lies outside a tensor's prefix
// block. The others must be prefix-compatible with the first: each no
// larger, or each no smaller, in every dimension. Trailing dimensions
// every tensor holds whole fold into the row first, so a conv kernel
// pruned on channels only sweeps rows of kh·kw elements, and a parameter
// every tensor holds whole is one row.
func eachRow(ts []*tensor.Tensor, fn func(rows [][]float64)) {
	// Each tensor's shape behind a leading 1 (so a scalar is one row of
	// one), carved from one allocation.
	rank := len(ts[0].Shape) + 1
	flat := make([]int, len(ts)*rank)
	dims := make([][]int, len(ts))
	for k, t := range ts {
		dims[k] = flat[k*rank : (k+1)*rank]
		dims[k][0] = 1
		copy(dims[k][1:], t.Shape)
	}
	for l := len(dims[0]) - 1; l > 1 && sameDim(dims, l); l-- {
		for k, d := range dims {
			d[l-1] *= d[l]
			dims[k] = d[:l]
		}
	}
	lead := dims[0][:len(dims[0])-1]
	pos := make([]int, len(lead))
	rows := make([][]float64, len(ts))
	for {
		for k, d := range dims {
			r, ext := 0, d[len(d)-1]
			for i, p := range pos {
				if p >= d[i] {
					r = -1
					break
				}
				r = r*d[i] + p
			}
			rows[k] = nil
			if r >= 0 {
				rows[k] = ts[k].Data[r*ext : (r+1)*ext]
			}
		}
		fn(rows)
		i := len(pos) - 1
		for ; i >= 0 && pos[i]+1 >= lead[i]; i-- {
			pos[i] = 0
		}
		if i < 0 {
			return
		}
		pos[i]++
	}
}

// sameDim reports whether every tensor has the first one's dimension l.
func sameDim(dims [][]int, l int) bool {
	for _, d := range dims {
		if d[l] != dims[0][l] {
			return false
		}
	}
	return true
}

// Krum scores every update by the summed squared distances to its
// n−f−2 nearest peers — distances taken per element over the prefix
// block both updates cover, normalised by the shared element count so
// narrow and wide submodels score comparably — and aggregates the M
// lowest-scoring updates by weighted mean (M = 1 is classic Krum,
// M > 1 multi-Krum). f = ⌊Frac·n⌋ is the assumed attacker count. With
// too few updates to score (n − f − 2 < 1) the policy falls back to the
// weighted mean of all of them.
type Krum struct {
	// Frac is the assumed adversarial fraction in [0, 0.5).
	Frac float64
	// M is how many lowest-scoring updates are averaged (min 1).
	M int
}

// Name implements Policy.
func (p Krum) Name() string {
	return spec.NewBuilder("krum").Float("frac", p.Frac).Int("m", p.M).String()
}

// Aggregate implements Policy.
func (p Krum) Aggregate(global nn.State, updates []Update) (nn.State, error) {
	if p.Frac < 0 || p.Frac >= 0.5 {
		return nil, fmt.Errorf("agg: krum fraction %v outside [0, 0.5)", p.Frac)
	}
	if err := validateUpdates(global, updates); err != nil {
		return nil, err
	}
	n := len(updates)
	f := int(p.Frac * float64(n))
	neighbors := n - f - 2
	if neighbors < 1 {
		// Too few candidates to score robustly.
		return Aggregate(global, updates)
	}
	m := p.M
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	// Pairwise mean-squared distances over common coverage.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := stateDistance(updates[i].State, updates[j].State)
			dist[i][j], dist[j][i] = d, d
		}
	}
	type scored struct {
		idx   int
		score float64
	}
	scores := make([]scored, n)
	ds := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		ds = ds[:0]
		for j := 0; j < n; j++ {
			if j != i {
				ds = append(ds, dist[i][j])
			}
		}
		sort.Float64s(ds)
		sum := 0.0
		for _, d := range ds[:neighbors] {
			sum += d
		}
		scores[i] = scored{idx: i, score: sum}
	}
	// Ties break on update order, which the caller fixes deterministically.
	sort.SliceStable(scores, func(a, b int) bool { return scores[a].score < scores[b].score })
	selected := make([]Update, 0, m)
	for _, sc := range scores[:m] {
		selected = append(selected, updates[sc.idx])
	}
	return Aggregate(global, selected)
}

// stateDistance is the mean squared elementwise difference over the
// prefix block two states share, summed across tensors and normalised by
// the shared element count. Every pool member covers the smallest
// prefix, so two updates always share elements; a degenerate empty
// intersection scores 0.
func stateDistance(a, b nn.State) float64 {
	var sum float64
	var count int64
	// Iterate in sorted name order: the sum is floating-point, so map
	// iteration order would leak into the low bits and break the
	// serial-vs-parallel bit-identity bar.
	for _, name := range a.Names() {
		av := a[name]
		bv, ok := b[name]
		if !ok {
			continue
		}
		small, big := av, bv
		if !tensor.PrefixFits(small, big) {
			small, big = bv, av
			if !tensor.PrefixFits(small, big) {
				continue
			}
		}
		eachRow([]*tensor.Tensor{small, big}, func(rows [][]float64) {
			for j, x := range rows[0] {
				d := x - rows[1][j]
				sum += d * d
			}
			count += int64(len(rows[0]))
		})
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Clipper bounds each update's influence before aggregation: an update
// whose delta against the dispatched reference exceeds Tau in L2 norm is
// scaled down onto the Tau-ball. Applied per update at record time (the
// server owns the reference state), composable with any Policy.
type Clipper struct {
	// Tau is the L2 norm bound on the update delta.
	Tau float64
}

// Clip returns the clipped state and whether clipping occurred. ref is
// the dispatched reference at the update's own width; tensors ref does
// not cover pass through unclipped (unreachable under the pool
// invariant).
func (c Clipper) Clip(ref, upd nn.State) (nn.State, bool) {
	var sq float64
	// Sorted name order keeps the floating-point norm independent of map
	// iteration order (see stateDistance).
	for _, name := range upd.Names() {
		uv := upd[name]
		rv, ok := ref[name]
		if !ok || !tensor.PrefixFits(uv, rv) {
			continue
		}
		r := tensor.ExtractPrefix(rv, uv.Shape)
		for i, x := range uv.Data {
			d := x - r.Data[i]
			sq += d * d
		}
	}
	norm := math.Sqrt(sq)
	if norm <= c.Tau || norm == 0 {
		return upd, false
	}
	scale := c.Tau / norm
	out := make(nn.State, len(upd))
	for name, uv := range upd {
		rv, ok := ref[name]
		if !ok || !tensor.PrefixFits(uv, rv) {
			out[name] = uv.Clone()
			continue
		}
		r := tensor.ExtractPrefix(rv, uv.Shape)
		for i, x := range uv.Data {
			r.Data[i] += scale * (x - r.Data[i])
		}
		out[name] = r
	}
	return out, true
}

// ParsePolicy builds an aggregation policy (and optional record-time
// clipper) from a compact spec string:
//
//	"" | "mean"              — the paper's weighted prefix mean
//	"trim" | "trim:frac=0.2" — coordinate-wise trimmed mean
//	"krum" | "krum:frac=0.2,m=2"
//	"clip" | "clip:tau=5"    — norm clipping over the mean
//	"clip:tau=5+trim:frac=0.2" — clipping composed with any policy
//
// Clipping is a per-update transform, so it composes with every policy;
// at most one non-clip policy may appear.
func ParsePolicy(policySpec string) (Policy, *Clipper, error) {
	var pol Policy
	var clip *Clipper
	for _, part := range strings.Split(policySpec, "+") {
		part = strings.TrimSpace(part)
		name, args, err := spec.Parse("agg", "policy", part)
		if err != nil {
			return nil, nil, err
		}
		var p Policy
		switch name {
		case "", "mean":
			p = Mean{}
		case "trim":
			p = TrimmedMean{Frac: args.Float("frac", 0.2)}
		case "krum":
			p = Krum{Frac: args.Float("frac", 0.2), M: args.Int("m", 1)}
		case "clip":
			if clip != nil {
				return nil, nil, fmt.Errorf("agg: duplicate clip in policy %q", policySpec)
			}
			clip = &Clipper{Tau: args.Float("tau", 5)}
			if clip.Tau <= 0 {
				return nil, nil, fmt.Errorf("agg: clip tau must be positive")
			}
		default:
			return nil, nil, fmt.Errorf("agg: unknown aggregation policy %q (want mean|trim|krum|clip)", name)
		}
		if err := args.Finish(); err != nil {
			return nil, nil, err
		}
		if p != nil {
			if pol != nil {
				return nil, nil, fmt.Errorf("agg: policy %q combines two aggregation rules (only clip composes)", policySpec)
			}
			pol = p
		}
	}
	if pol == nil {
		pol = Mean{}
	}
	switch v := pol.(type) {
	case TrimmedMean:
		if v.Frac < 0 || v.Frac >= 0.5 {
			return nil, nil, fmt.Errorf("agg: trim fraction %v outside [0, 0.5)", v.Frac)
		}
	case Krum:
		if v.Frac < 0 || v.Frac >= 0.5 {
			return nil, nil, fmt.Errorf("agg: krum fraction %v outside [0, 0.5)", v.Frac)
		}
		if v.M < 1 {
			return nil, nil, fmt.Errorf("agg: krum m must be >= 1")
		}
	}
	return pol, clip, nil
}
