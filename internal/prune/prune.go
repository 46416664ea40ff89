// Package prune implements AdaptiveFL's fine-grained width-wise model
// pruning mechanism (paper §3.2): submodels are produced by keeping the
// leading round(F_k·r_w) channels of every width unit k > I while units
// k ≤ I keep their full width F_k, where r_w is the width pruning ratio
// and I the starting pruning layer (I ≥ τ so all submodels share shallow
// layers).
//
// The package builds the model pool R = {S_p,…,S_1, M_p,…,M_1, L_1}
// (paper Algorithm 1 line 4 / Table 1), decides derivability between pool
// members, slices submodel weights out of the global state, and performs
// the on-device available-resource-aware pruning search.
package prune

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// Level is a submodel size level.
type Level int

// The three size levels of the pool.
const (
	LevelS Level = iota
	LevelM
	LevelL
)

// NumLevels is the number of size levels (the curiosity table's rows).
const NumLevels = 3

// String returns the paper's level letter.
func (l Level) String() string {
	switch l {
	case LevelS:
		return "S"
	case LevelM:
		return "M"
	case LevelL:
		return "L"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// DefaultRw holds the paper's per-level width ratios (Table 1).
var DefaultRw = map[Level]float64{LevelS: 0.40, LevelM: 0.66, LevelL: 1.0}

// Submodel is one pool member: a (level, r_w, I) triple with its realised
// width vector and trainable-parameter size.
type Submodel struct {
	Index  int   // position in the pool, ascending by construction order
	Level  Level // S, M or L
	Sub    int   // 1-based sublevel: S_1 is the largest S (paper notation)
	Rw     float64
	I      int // starting pruning layer; 0 for the unpruned L_1
	Widths []int
	Size   int64 // trainable parameters
	MACs   int64
}

// Name renders the paper notation, e.g. "S2" or "L1".
func (s Submodel) Name() string { return fmt.Sprintf("%s%d", s.Level, s.Sub) }

// DerivableFrom reports whether s can be produced on-device from received
// by further prefix pruning, i.e. s's widths are elementwise ≤ received's.
// (Equivalently r_w(s) ≤ r_w(received) and I(s) ≤ I(received); the width
// comparison also covers the unpruned L_1.)
func (s Submodel) DerivableFrom(received Submodel) bool {
	if len(s.Widths) != len(received.Widths) {
		return false
	}
	for i := range s.Widths {
		if s.Widths[i] > received.Widths[i] {
			return false
		}
	}
	return true
}

// PlanWidths realises the (r_w, I) pruning rule on a full width vector:
// unit k (1-based) keeps full[k-1] channels when k ≤ I and
// max(1, floor(full[k-1]·r_w)) channels when k > I. Floor (W[:d·r_w] slice
// semantics) is what reproduces Table 1's sizes exactly — e.g. M1 =
// floor(512·0.66) = 337 channels gives 16.81M parameters, ratio 0.50.
func PlanWidths(full []int, rw float64, i int) []int {
	widths := make([]int, len(full))
	for k := range full {
		if k+1 <= i || rw >= 1 {
			widths[k] = full[k]
			continue
		}
		w := int(float64(full[k]) * rw)
		if w < 1 {
			w = 1
		}
		widths[k] = w
	}
	return widths
}

// Config controls pool construction.
type Config struct {
	// P is the number of submodels per S/M level (paper hyperparameter p).
	// P = 1 is the coarse-grained ablation; the paper's default is 3.
	P int
	// RwS / RwM override the level width ratios; zero means the defaults
	// (0.40 and 0.66).
	RwS, RwM float64
}

// Pool is the model pool R in ascending size-level order:
// index 0 = S_p (smallest) … index 2P = L_1 (the full global model).
type Pool struct {
	Members []Submodel
	P       int
	Spec    models.Spec
	Model   models.Config

	// layouts caches, per member index, the parameter layout of a model
	// built at that member's widths (see ExtractState); filled lazily.
	layouts sync.Map // int → *layout
}

// layout is the (name, shape) list of a model's parameters in Params
// order, with its total element count and rank.
type layout struct {
	names  []string
	shapes []tensor.Tensor // Shape only; Data stays nil
	numel  int
	rank   int // Σ len(shape)
}

// BuildPool splits an architecture into the 2p+1 pool members.
func BuildPool(mcfg models.Config, pcfg Config) (*Pool, error) {
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	if pcfg.P < 1 {
		return nil, fmt.Errorf("prune: P must be >= 1, got %d", pcfg.P)
	}
	spec := mcfg.Spec()
	if pcfg.P > len(spec.IChoices) {
		return nil, fmt.Errorf("prune: P=%d exceeds the %d I-choices of %s", pcfg.P, len(spec.IChoices), mcfg.Arch)
	}
	rwS, rwM := pcfg.RwS, pcfg.RwM
	if rwS == 0 {
		rwS = DefaultRw[LevelS]
	}
	if rwM == 0 {
		rwM = DefaultRw[LevelM]
	}
	// Use the largest P of the I choices, ascending: S_p has the smallest
	// I (most layers pruned), S_1 the largest.
	iChoices := spec.IChoices[len(spec.IChoices)-pcfg.P:]

	pool := &Pool{P: pcfg.P, Spec: spec, Model: mcfg}
	add := func(level Level, sub int, rw float64, i int) {
		widths := PlanWidths(spec.FullWidths, rw, i)
		st := models.CountStats(mcfg, widths)
		pool.Members = append(pool.Members, Submodel{
			Index: len(pool.Members), Level: level, Sub: sub,
			Rw: rw, I: i, Widths: widths, Size: st.Params, MACs: st.MACs,
		})
	}
	for j, i := range iChoices {
		add(LevelS, pcfg.P-j, rwS, i)
	}
	for j, i := range iChoices {
		add(LevelM, pcfg.P-j, rwM, i)
	}
	full := append([]int(nil), spec.FullWidths...)
	st := models.CountStats(mcfg, full)
	pool.Members = append(pool.Members, Submodel{
		Index: len(pool.Members), Level: LevelL, Sub: 1,
		Rw: 1, I: len(full), Widths: full, Size: st.Params, MACs: st.MACs,
	})
	// Algorithm 1's resource-table updates treat the pool as ordered by
	// size ("for t = m … L_1"). For VGG16 the construction order already
	// is ascending, but for architectures whose deep units dominate the
	// parameter count the levels can interleave (e.g. MobileNetV2's S_1
	// outweighs M_3), so sort explicitly.
	sort.SliceStable(pool.Members, func(i, j int) bool {
		return pool.Members[i].Size < pool.Members[j].Size
	})
	for i := range pool.Members {
		pool.Members[i].Index = i
	}
	return pool, nil
}

// Largest returns the unpruned L_1 member (the global model's shape).
func (p *Pool) Largest() Submodel { return p.Members[len(p.Members)-1] }

// Smallest returns S_p, the smallest member.
func (p *Pool) Smallest() Submodel { return p.Members[0] }

// ByLevel returns the members of one level, ascending by size.
func (p *Pool) ByLevel(l Level) []Submodel {
	var out []Submodel
	for _, m := range p.Members {
		if m.Level == l {
			out = append(out, m)
		}
	}
	return out
}

// LargestFit returns the largest pool member that is derivable from the
// received submodel and whose size fits capacity — the device-side
// available-resource-aware pruning of paper §3.2 restricted to pool
// members (Algorithm 1 treats the returned model m′ as a pool member).
// ok is false when not even a derivable member fits.
func (p *Pool) LargestFit(received Submodel, capacity int64) (Submodel, bool) {
	for i := len(p.Members) - 1; i >= 0; i-- {
		m := p.Members[i]
		if m.Size <= capacity && m.DerivableFrom(received) {
			return m, true
		}
	}
	return Submodel{}, false
}

// ExtractState slices the submodel's parameters out of a full-width global
// state dict: every tensor is the prefix block matching the shapes of a
// model built at the submodel's widths. A pool member's layout is cached,
// so a model is built at most once per member.
func (p *Pool) ExtractState(global nn.State, sub Submodel) (nn.State, error) {
	member := sub.Index >= 0 && sub.Index < len(p.Members) && slices.Equal(p.Members[sub.Index].Widths, sub.Widths)
	if member {
		if v, ok := p.layouts.Load(sub.Index); ok {
			return v.(*layout).extract(global)
		}
	}
	target, err := models.Build(p.Model, sub.Widths)
	if err != nil {
		return nil, err
	}
	l := newLayout(target.Params())
	if member {
		v, _ := p.layouts.LoadOrStore(sub.Index, l)
		l = v.(*layout)
	}
	return l.extract(global)
}

// ParamHolder is anything exposing named parameters — *models.Model, a
// plain nn.Layer, or composite wrappers like ScaleFL's multi-exit nets.
type ParamHolder interface {
	Params() []*nn.Param
}

// ExtractForModel slices, for each parameter of target, the prefix block
// of the same name from the global state. Loading a model goes through
// LoadPrefix, which needs no intermediate state.
func ExtractForModel(global nn.State, target ParamHolder) (nn.State, error) {
	return newLayout(target.Params()).extract(global)
}

// LoadPrefix copies into each parameter of target the prefix block of the
// same name from the global state, straight into the parameter's own
// value tensor. It fails, as ExtractForModel does, on a name global lacks
// or a parameter shape that does not fit its global tensor; parameters
// before the failing one are then already loaded.
func LoadPrefix(target ParamHolder, global nn.State) error {
	for _, p := range target.Params() {
		g, ok := global[p.Name]
		if !ok {
			return fmt.Errorf("prune: global state missing %q", p.Name)
		}
		if !tensor.PrefixFits(p.Val, g) {
			return fmt.Errorf("prune: %q shape %v does not fit global %v", p.Name, p.Val.Shape, g.Shape)
		}
		tensor.ExtractPrefixInto(p.Val, g)
	}
	return nil
}

// newLayout records the names and shapes of params.
func newLayout(params []*nn.Param) *layout {
	l := &layout{names: make([]string, len(params)), shapes: make([]tensor.Tensor, len(params))}
	for i, param := range params {
		l.names[i] = param.Name
		l.shapes[i].Shape = slices.Clone(param.Val.Shape)
		l.numel += len(param.Val.Data)
		l.rank += len(param.Val.Shape)
	}
	return l
}

// extract slices the layout's prefix blocks out of global. The tensors
// share one value slab and one shape slab.
func (l *layout) extract(global nn.State) (nn.State, error) {
	out := make(nn.State, len(l.names))
	ts := make([]tensor.Tensor, len(l.names))
	data := make([]float64, l.numel)
	dims := make([]int, 0, l.rank)
	for i, name := range l.names {
		want := &l.shapes[i]
		g, ok := global[name]
		if !ok {
			return nil, fmt.Errorf("prune: global state missing %q", name)
		}
		if !tensor.PrefixFits(want, g) {
			return nil, fmt.Errorf("prune: %q shape %v does not fit global %v", name, want.Shape, g.Shape)
		}
		n := len(dims)
		dims = append(dims, want.Shape...)
		t := &ts[i]
		t.Shape = dims[n:len(dims):len(dims)]
		size := 1
		for _, d := range t.Shape {
			size *= d
		}
		t.Data, data = data[:size:size], data[size:]
		tensor.ExtractPrefixInto(t, g)
		out[name] = t
	}
	return out, nil
}
