package agg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// Frozen copies of the trimmed mean and the Krum distance as they stood
// before the row sweep: the recursive per-element walks and the
// point-query view. They are the bitwise references of the tests below —
// every replacement must reproduce their bits — and must not be
// "improved".

type refCovered struct {
	t       *tensor.Tensor
	strides []int
	weight  float64
}

func (cv refCovered) at(pos []int) (float64, bool) {
	off := 0
	for i, p := range pos {
		if p >= cv.t.Shape[i] {
			return 0, false
		}
		off += p * cv.strides[i]
	}
	return cv.t.Data[off], true
}

func trimmedMeanRef(frac float64, global nn.State, updates []Update) nn.State {
	out := make(nn.State, len(global))
	vals := make([]float64, 0, len(updates))
	trim := int(frac * float64(len(updates)))
	for name, g := range global {
		res := g.Clone()
		var covering []refCovered
		for _, u := range updates {
			if v, ok := u.State[name]; ok {
				covering = append(covering, refCovered{t: v, strides: v.Strides(), weight: u.Weight})
			}
		}
		if len(covering) == 0 {
			out[name] = res
			continue
		}
		var walk func(off int, shape, strides []int, pos []int)
		walk = func(off int, shape, strides []int, pos []int) {
			if len(shape) == 0 {
				vals = vals[:0]
				var wsum, wval float64
				for _, cv := range covering {
					if v, ok := cv.at(pos); ok {
						vals = append(vals, v)
						wsum += cv.weight
						wval += cv.weight * v
					}
				}
				if len(vals) == 0 {
					return
				}
				if 2*trim >= len(vals) {
					res.Data[off] = wval / wsum
					return
				}
				sort.Float64s(vals)
				sum := 0.0
				for _, v := range vals[trim : len(vals)-trim] {
					sum += v
				}
				res.Data[off] = sum / float64(len(vals)-2*trim)
				return
			}
			for i := 0; i < shape[0]; i++ {
				walk(off+i*strides[0], shape[1:], strides[1:], append(pos, i))
			}
		}
		walk(0, g.Shape, g.Strides(), make([]int, 0, len(g.Shape)))
		out[name] = res
	}
	return out
}

func stateDistanceRef(a, b nn.State) float64 {
	var sum float64
	var count int64
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
		var walk func(offS, offB int, shape, stridesS, stridesB []int)
		walk = func(offS, offB int, shape, stridesS, stridesB []int) {
			if len(shape) == 0 {
				d := small.Data[offS] - big.Data[offB]
				sum += d * d
				count++
				return
			}
			for i := 0; i < shape[0]; i++ {
				walk(offS+i*stridesS[0], offB+i*stridesB[0], shape[1:], stridesS[1:], stridesB[1:])
			}
		}
		walk(0, 0, small.Shape, small.Strides(), big.Strides())
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// refValue draws an element: mostly Gaussian, often one of a few
// repeated values (signed zeros included) so sorts see ties.
func refValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return []float64{0, math.Copysign(0, -1), 1, -1, 0.5}[rng.Intn(5)]
	}
	return rng.NormFloat64()
}

func refTensor(rng *rand.Rand, shape []int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = refValue(rng)
	}
	return t
}

// refShapes are the global tensors of the fixtures: ranks 1, 2 and 4,
// the rank-4 ones shaped like conv kernels [out, in, kh, kw], and a
// scalar.
var refShapes = []struct {
	name  string
	shape []int
}{
	{"conv.w", []int{5, 4, 3, 3}},
	{"fc.b", []int{7}},
	{"fc.w", []int{6, 9}},
	{"odd.w", []int{3, 5, 2, 4}},
	{"scale", []int{}},
	{"unused.b", []int{4}},
}

// refUpdates builds n heterogeneous prefix updates of refShapes. Each
// update draws a width fraction skewed small, so the deep coordinates
// only a few updates reach take the fallback path; conv kernels keep
// their spatial dims whole (as pruning does), odd.w prunes every dim.
// Some updates omit a tensor; none holds unused.b.
func refUpdates(rng *rand.Rand, n int) []Update {
	updates := make([]Update, n)
	for i := range updates {
		frac := math.Pow(rng.Float64(), 2)
		st := nn.State{}
		for _, rs := range refShapes {
			name, g := rs.name, rs.shape
			if name == "unused.b" || rng.Intn(6) == 0 {
				continue
			}
			shape := make([]int, len(g))
			for d, gd := range g {
				shape[d] = max(1, int(math.Ceil(frac*float64(gd))))
				if name == "conv.w" && d >= 2 {
					shape[d] = gd
				}
				if name == "odd.w" {
					shape[d] = 1 + rng.Intn(gd)
				}
			}
			st[name] = refTensor(rng, shape)
		}
		updates[i] = Update{State: st, Weight: float64(1 + rng.Intn(50))}
	}
	return updates
}

func refGlobal(rng *rand.Rand) nn.State {
	global := nn.State{}
	for _, rs := range refShapes {
		global[rs.name] = refTensor(rng, rs.shape)
	}
	return global
}

func sameBits(t *testing.T, what string, got, want nn.State) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tensors, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: tensor %q missing", what, name)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%s: %s[%d] = %v (%#x), want %v (%#x)", what, name, i,
					g.Data[i], math.Float64bits(g.Data[i]), w.Data[i], math.Float64bits(w.Data[i]))
			}
		}
	}
}

// forEachParallelism runs fn at tensor parallelism 1, 2 and 4.
func forEachParallelism(t *testing.T, fn func(par int)) {
	t.Helper()
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	for _, par := range []int{1, 2, 4} {
		tensor.SetParallelism(par)
		fn(par)
	}
}

func TestTrimmedMeanMatchesRef(t *testing.T) {
	means := map[string]nn.State{}
	forEachParallelism(t, func(par int) {
		for _, frac := range []float64{0, 0.2, 0.45} {
			for n := 1; n <= 17; n++ {
				rng := rand.New(rand.NewSource(int64(1000*n) + int64(frac*100)))
				global := refGlobal(rng)
				updates := refUpdates(rng, n)
				got, err := TrimmedMean{Frac: frac}.Aggregate(global, updates)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("par=%d frac=%v n=%d", par, frac, n)
				sameBits(t, what, got, trimmedMeanRef(frac, global, updates))
				// The plain mean shares the fan-out: same bits at any width.
				mean, err := Aggregate(global, updates)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("frac=%v n=%d", frac, n)
				if want, ok := means[key]; ok {
					sameBits(t, what+" mean", mean, want)
				}
				means[key] = mean
			}
		}
	})
}

func TestStateDistanceMatchesRef(t *testing.T) {
	forEachParallelism(t, func(par int) {
		rng := rand.New(rand.NewSource(7))
		updates := refUpdates(rng, 17)
		// A pair neither of which fits the other is skipped by both.
		updates[0].State["odd.w"] = refTensor(rng, []int{3, 1, 2, 4})
		updates[1].State["odd.w"] = refTensor(rng, []int{1, 5, 2, 4})
		for i, a := range updates {
			for j, b := range updates {
				got, want := stateDistance(a.State, b.State), stateDistanceRef(a.State, b.State)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("par=%d: distance(%d, %d) = %v, want %v", par, i, j, got, want)
				}
			}
		}
	})
}
