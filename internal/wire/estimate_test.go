package wire_test

import (
	"math/rand"
	"testing"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
	"adaptivefl/internal/wire"
)

// estState builds a state dict with params total values of trained-weight
// shape (noisy, mixed magnitudes) so encoded sizes behave like real
// uploads rather than like compressible constants.
func estState(params int) nn.State {
	rng := rand.New(rand.NewSource(17))
	st := nn.State{}
	half := params / 2
	mk := func(n int) *tensor.Tensor {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 0.05
		}
		return tensor.FromSlice(vals, n)
	}
	st["a.weight"] = mk(half)
	st["b.weight"] = mk(params - half)
	return st
}

// TestEstimateSizeDeterministic pins the estimator contract: a pure
// function of the parameter count, identical across calls.
func TestEstimateSizeDeterministic(t *testing.T) {
	for _, tag := range wire.Tags() {
		c, err := wire.ByTag(tag)
		if err != nil {
			t.Fatal(err)
		}
		a := wire.EstimateSize(c, 10000)
		b := wire.EstimateSize(c, 10000)
		if a != b {
			t.Fatalf("%s: estimate not deterministic (%d vs %d)", tag, a, b)
		}
		if a <= 0 {
			t.Fatalf("%s: non-positive estimate %d", tag, a)
		}
	}
}

// TestEstimateSizeOrdering pins the relative sizes the codecs are built
// for: delta(10%, 0.44 B/param) < q8 (1 B/param) < f32 < raw at a fixed
// parameter count.
func TestEstimateSizeOrdering(t *testing.T) {
	const n = 50000
	est := func(tag string) int64 {
		c, err := wire.ByTag(tag)
		if err != nil {
			t.Fatal(err)
		}
		return wire.EstimateSize(c, n)
	}
	q8, delta, f32, raw := est(wire.TagQ8), est(wire.TagDelta), est(wire.TagF32), est(wire.TagRaw)
	if !(delta < q8 && q8 < f32 && f32 < raw) {
		t.Fatalf("estimate ordering violated: delta=%d q8=%d f32=%d raw=%d", delta, q8, f32, raw)
	}
}

// TestEstimateTracksActual requires each built-in estimator to land
// within a factor of 1.5 of the actual encoded size on a realistic state —
// the pricing error a scheduler's estimate mode accepts must stay bounded.
// The delta codec is priced as what estimate mode prices, an uplink
// diffed against the dispatched reference.
func TestEstimateTracksActual(t *testing.T) {
	const params = 20000
	ref := estState(params)
	st := ref.Clone()
	rng := rand.New(rand.NewSource(18))
	for _, name := range st.Names() {
		for i := range st[name].Data {
			st[name].Data[i] += 0.005 * rng.NormFloat64() // one round of training away from ref
		}
	}
	for _, tc := range []struct {
		tag string
		ref nn.State
	}{{wire.TagRaw, nil}, {wire.TagF32, nil}, {wire.TagQ8, nil}, {wire.TagDelta, ref}} {
		c, err := wire.ByTag(tc.tag)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := c.Encode(st, tc.ref)
		if err != nil {
			t.Fatal(err)
		}
		actual := float64(len(enc))
		est := float64(wire.EstimateSize(c, params))
		if est < actual/1.5 || est > actual*1.5 {
			t.Errorf("%s (ref=%v): estimate %.0f vs actual %.0f outside the 1.5x band", tc.tag, tc.ref != nil, est, actual)
		} else {
			t.Logf("%s (ref=%v): estimate %.0f, actual %.0f (%.2fx)", tc.tag, tc.ref != nil, est, actual, est/actual)
		}
	}
}

// TestEstimateSizeFallback: a codec without its own estimator prices at
// the raw 8-bytes-per-value baseline.
func TestEstimateSizeFallback(t *testing.T) {
	got := wire.EstimateSize(noEstimator{}, 1000)
	if want := wire.EstimateSize(wire.Raw{}, 1000); got != want {
		t.Fatalf("fallback estimate %d, want raw's %d", got, want)
	}
}

// noEstimator is a minimal codec that does not implement SizeEstimator
// (no embedding — a promoted EstimateSize would defeat the test).
type noEstimator struct{}

func (noEstimator) Tag() string                                   { return "noest" }
func (noEstimator) UsesRef() bool                                 { return false }
func (noEstimator) Encode(st, _ nn.State) ([]byte, error)         { return wire.Raw{}.Encode(st, nil) }
func (noEstimator) Decode(b []byte, _ nn.State) (nn.State, error) { return wire.Raw{}.Decode(b, nil) }
