package agg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

func TestAggregateHandExample(t *testing.T) {
	// Global 2x2; client A covers the full tensor with weight 1, client B
	// covers the top-left 1x1 prefix with weight 3.
	global := nn.State{"w": tensor.FromSlice([]float64{0, 0, 0, 0}, 2, 2)}
	a := nn.State{"w": tensor.FromSlice([]float64{4, 4, 4, 4}, 2, 2)}
	b := nn.State{"w": tensor.FromSlice([]float64{8}, 1, 1)}
	out, err := Aggregate(global, []Update{{a, 1}, {b, 3}})
	if err != nil {
		t.Fatal(err)
	}
	w := out["w"]
	// Element (0,0): (4*1 + 8*3)/4 = 7; the rest: 4.
	if w.At(0, 0) != 7 {
		t.Fatalf("overlap element = %v, want 7", w.At(0, 0))
	}
	for _, idx := range [][2]int{{0, 1}, {1, 0}, {1, 1}} {
		if w.At(idx[0], idx[1]) != 4 {
			t.Fatalf("element %v = %v, want 4", idx, w.At(idx[0], idx[1]))
		}
	}
}

func TestAggregateUncoveredKeepsGlobal(t *testing.T) {
	global := nn.State{
		"covered":   tensor.FromSlice([]float64{1, 1}, 2),
		"uncovered": tensor.FromSlice([]float64{5, 6}, 2),
	}
	up := nn.State{"covered": tensor.FromSlice([]float64{3, 3}, 2)}
	out, err := Aggregate(global, []Update{{up, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if out["covered"].Data[0] != 3 {
		t.Fatalf("covered = %v", out["covered"].Data)
	}
	if out["uncovered"].Data[0] != 5 || out["uncovered"].Data[1] != 6 {
		t.Fatalf("uncovered changed: %v", out["uncovered"].Data)
	}
}

func TestAggregatePartialPrefixKeepsGlobalTail(t *testing.T) {
	global := nn.State{"w": tensor.FromSlice([]float64{10, 20, 30}, 3)}
	up := nn.State{"w": tensor.FromSlice([]float64{1, 2}, 2)}
	out, err := Aggregate(global, []Update{{up, 1}})
	if err != nil {
		t.Fatal(err)
	}
	w := out["w"]
	if w.Data[0] != 1 || w.Data[1] != 2 || w.Data[2] != 30 {
		t.Fatalf("w = %v, want [1 2 30]", w.Data)
	}
}

func TestAggregateErrors(t *testing.T) {
	global := nn.State{"w": tensor.New(2)}
	if _, err := Aggregate(global, []Update{{nn.State{"x": tensor.New(2)}, 1}}); err == nil {
		t.Fatal("expected error for unknown parameter")
	}
	if _, err := Aggregate(global, []Update{{nn.State{"w": tensor.New(3)}, 1}}); err == nil {
		t.Fatal("expected error for oversized update")
	}
	if _, err := Aggregate(global, []Update{{nn.State{"w": tensor.New(2)}, 0}}); err == nil {
		t.Fatal("expected error for zero weight")
	}
}

func TestAggregateIdenticalClientsIsIdentity(t *testing.T) {
	// Property: aggregating k copies of the same state returns that state
	// regardless of the weights.
	rng := rand.New(rand.NewSource(1))
	f := func(w1Raw, w2Raw uint8) bool {
		w1, w2 := float64(w1Raw%9)+1, float64(w2Raw%9)+1
		st := nn.State{"w": tensor.Randn(rng, 1, 3, 2)}
		global := nn.State{"w": tensor.New(3, 2)}
		out, err := Aggregate(global, []Update{{st.Clone(), w1}, {st.Clone(), w2}})
		if err != nil {
			return false
		}
		for i := range st["w"].Data {
			if math.Abs(out["w"].Data[i]-st["w"].Data[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateMatchesFedAvgOnHomogeneous(t *testing.T) {
	// With all clients holding the full shape, Algorithm 2 reduces to
	// weighted FedAvg.
	rng := rand.New(rand.NewSource(2))
	global := nn.State{"w": tensor.New(4)}
	var ups []Update
	weights := []float64{1, 2, 3}
	states := make([]nn.State, 3)
	for i := range states {
		states[i] = nn.State{"w": tensor.Randn(rng, 1, 4)}
		ups = append(ups, Update{states[i], weights[i]})
	}
	out, err := Aggregate(global, ups)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		want := (states[0]["w"].Data[j]*1 + states[1]["w"].Data[j]*2 + states[2]["w"].Data[j]*3) / 6
		if math.Abs(out["w"].Data[j]-want) > 1e-12 {
			t.Fatalf("element %d = %v, want %v", j, out["w"].Data[j], want)
		}
	}
}

func TestAggregateConvexHullProperty(t *testing.T) {
	// Property: every aggregated element lies within [min, max] of the
	// values contributed for it (or equals the global if uncovered).
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		global := nn.State{"w": tensor.Randn(rng, 1, 3, 3)}
		var ups []Update
		for k := 0; k < 3; k++ {
			rows := 1 + r.Intn(3)
			cols := 1 + r.Intn(3)
			ups = append(ups, Update{nn.State{"w": tensor.Randn(rng, 1, rows, cols)}, float64(1 + r.Intn(5))})
		}
		out, err := Aggregate(global, ups)
		if err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				covered := false
				for _, u := range ups {
					w := u.State["w"]
					if i < w.Shape[0] && j < w.Shape[1] {
						covered = true
						v := w.At(i, j)
						lo, hi = math.Min(lo, v), math.Max(hi, v)
					}
				}
				got := out["w"].At(i, j)
				if !covered {
					if got != global["w"].At(i, j) {
						return false
					}
					continue
				}
				if got < lo-1e-12 || got > hi+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionErrorDeterministic(t *testing.T) {
	// Update 1 carries several bad tensors and an unknown parameter, and
	// update 2 a zero weight: the error must always name update 1's first
	// bad parameter in sorted order, whatever the map iteration order or
	// the fan-out width. At one index a bad weight comes first.
	global := nn.State{}
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		global[name] = tensor.New(2, 3)
	}
	good := func() nn.State {
		st := nn.State{}
		for name := range global {
			st[name] = tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
		}
		return st
	}
	bad := good()
	bad["d"].Data[5] = math.NaN()
	bad["c"].Data[0] = math.Inf(-1)
	bad["f"] = tensor.New(3, 3)
	bad["zz"] = tensor.New(1)
	cases := []struct {
		updates []Update
		want    string
	}{
		{[]Update{{good(), 1}, {bad, 1}, {good(), 0}},
			`agg: update 1 parameter "c" contains a non-finite value`},
		{[]Update{{good(), 1}, {good(), 1}, {bad, 0}},
			`agg: update 2 has non-positive weight 0`},
		{[]Update{{good(), 1}, {nn.State{"zz": tensor.New(1), "e": tensor.New(3, 3)}, 1}, {bad, 1}},
			`agg: update 1 parameter "e" shape [3 3] does not fit global [2 3]`},
	}
	defer tensor.SetParallelism(tensor.SetParallelism(4))
	for _, tc := range cases {
		for _, p := range []Policy{Mean{}, TrimmedMean{Frac: 0.2}, Krum{Frac: 0.2, M: 1}} {
			for i := 0; i < 50; i++ {
				_, err := p.Aggregate(global, tc.updates)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("%s call %d: error %v, want %q", p.Name(), i, err, tc.want)
				}
			}
		}
	}
}
