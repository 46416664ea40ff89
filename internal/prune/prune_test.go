package prune

import (
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

func vggFull() models.Config {
	return models.Config{Arch: models.VGG16, NumClasses: 10}
}

func vggTiny() models.Config {
	return models.Config{Arch: models.VGG16, NumClasses: 5, WidthScale: 0.125, Seed: 1}
}

// TestTable1VGG16Splits reproduces the paper's Table 1: the parameter
// count and MAC count of every pool member of full-scale VGG16 (p = 3)
// must match the published values within 1.5%. This pins down the exact
// pruning semantics (outputs pruned from layer I+1 on, inputs following
// the previous layer's width).
func TestTable1VGG16Splits(t *testing.T) {
	pool, err := BuildPool(vggFull(), Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		params, macs float64
	}{
		"L1": {33.65e6, 333.22e6},
		"M1": {16.81e6, 272.17e6},
		"M2": {15.41e6, 239.95e6},
		"M3": {14.84e6, 203.41e6},
		"S1": {8.39e6, 239.00e6},
		"S2": {6.48e6, 191.31e6},
		"S3": {5.67e6, 139.07e6},
	}
	if len(pool.Members) != 7 {
		t.Fatalf("pool has %d members, want 7", len(pool.Members))
	}
	for _, m := range pool.Members {
		w, ok := want[m.Name()]
		if !ok {
			t.Fatalf("unexpected pool member %s", m.Name())
		}
		if rel := math.Abs(float64(m.Size)-w.params) / w.params; rel > 0.015 {
			t.Errorf("%s: params %d vs paper %.0f (rel err %.3f)", m.Name(), m.Size, w.params, rel)
		}
		if rel := math.Abs(float64(m.MACs)-w.macs) / w.macs; rel > 0.015 {
			t.Errorf("%s: MACs %d vs paper %.0f (rel err %.3f)", m.Name(), m.MACs, w.macs, rel)
		}
	}
}

func TestTable1SplitConfiguration(t *testing.T) {
	pool, err := BuildPool(vggFull(), Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Table 1's (r_w, I) assignments: S3=(0.40,4) ... M1=(0.66,8).
	cases := map[string]struct {
		rw float64
		i  int
	}{
		"S3": {0.40, 4}, "S2": {0.40, 6}, "S1": {0.40, 8},
		"M3": {0.66, 4}, "M2": {0.66, 6}, "M1": {0.66, 8},
	}
	for _, m := range pool.Members {
		if m.Level == LevelL {
			continue
		}
		c := cases[m.Name()]
		if m.Rw != c.rw || m.I != c.i {
			t.Errorf("%s: got (rw=%.2f, I=%d), want (%.2f, %d)", m.Name(), m.Rw, m.I, c.rw, c.i)
		}
	}
}

func TestPlanWidths(t *testing.T) {
	full := []int{10, 20, 30}
	w := PlanWidths(full, 0.5, 1)
	if w[0] != 10 || w[1] != 10 || w[2] != 15 {
		t.Fatalf("PlanWidths = %v", w)
	}
	w = PlanWidths(full, 0.04, 0)
	if w[0] != 1 {
		t.Fatalf("widths must be at least 1, got %v", w)
	}
	w = PlanWidths(full, 0.5, 3)
	for i := range full {
		if w[i] != full[i] {
			t.Fatalf("I=n must keep full widths, got %v", w)
		}
	}
}

func TestPoolOrderingAscending(t *testing.T) {
	for _, arch := range []models.Arch{models.VGG16, models.ResNet18, models.MobileNetV2} {
		cfg := models.Config{Arch: arch, NumClasses: 10}
		pool, err := BuildPool(cfg, Config{P: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(pool.Members); i++ {
			if pool.Members[i].Size <= pool.Members[i-1].Size {
				t.Errorf("%s: pool not ascending at %d: %d then %d",
					arch, i, pool.Members[i-1].Size, pool.Members[i].Size)
			}
		}
		if pool.Largest().Level != LevelL {
			t.Errorf("%s: largest member is %s, want L", arch, pool.Largest().Name())
		}
		if pool.Smallest().Name() != "S3" {
			t.Errorf("%s: smallest member is %s, want S3", arch, pool.Smallest().Name())
		}
	}
}

func TestCoarsePoolP1(t *testing.T) {
	pool, err := BuildPool(vggFull(), Config{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Members) != 3 {
		t.Fatalf("coarse pool has %d members, want 3", len(pool.Members))
	}
	names := []string{"S1", "M1", "L1"}
	for i, m := range pool.Members {
		if m.Name() != names[i] {
			t.Errorf("member %d = %s, want %s", i, m.Name(), names[i])
		}
	}
	// Coarse members use the largest I choice.
	if pool.Members[0].I != 8 {
		t.Errorf("coarse S1 has I=%d, want 8", pool.Members[0].I)
	}
}

func TestBuildPoolRejectsBadConfig(t *testing.T) {
	if _, err := BuildPool(vggFull(), Config{P: 0}); err == nil {
		t.Fatal("expected error for P=0")
	}
	if _, err := BuildPool(vggFull(), Config{P: 5}); err == nil {
		t.Fatal("expected error for P exceeding I choices")
	}
	if _, err := BuildPool(models.Config{Arch: "nope", NumClasses: 2}, Config{P: 1}); err == nil {
		t.Fatal("expected error for bad model config")
	}
}

func TestDerivability(t *testing.T) {
	pool, err := BuildPool(vggFull(), Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Submodel{}
	for _, m := range pool.Members {
		byName[m.Name()] = m
	}
	// Everything is derivable from L1.
	for _, m := range pool.Members {
		if !m.DerivableFrom(byName["L1"]) {
			t.Errorf("%s should be derivable from L1", m.Name())
		}
	}
	// S1 (0.40, I=8) is smaller than M3 (0.66, I=4) but NOT derivable:
	// S1 keeps layers 5-8 at full width, which M3 has already pruned.
	if byName["S1"].Size >= byName["M3"].Size {
		t.Fatal("premise broken: S1 should be smaller than M3")
	}
	if byName["S1"].DerivableFrom(byName["M3"]) {
		t.Error("S1 must not be derivable from M3")
	}
	// Same level: smaller I derivable from larger I.
	if !byName["S3"].DerivableFrom(byName["S1"]) {
		t.Error("S3 should be derivable from S1")
	}
	if byName["S1"].DerivableFrom(byName["S3"]) {
		t.Error("S1 must not be derivable from S3")
	}
	// Cross level with both rw and I smaller: derivable.
	if !byName["S3"].DerivableFrom(byName["M1"]) {
		t.Error("S3 should be derivable from M1")
	}
}

func TestLargestFit(t *testing.T) {
	pool, err := BuildPool(vggFull(), Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	l1 := pool.Largest()
	// Plenty of capacity: keep the received model.
	got, ok := pool.LargestFit(l1, l1.Size)
	if !ok || got.Name() != "L1" {
		t.Fatalf("LargestFit(L1, full) = %v %v, want L1", got.Name(), ok)
	}
	// Capacity just below M1: best derivable-from-L1 fit below that size.
	byName := map[string]Submodel{}
	for _, m := range pool.Members {
		byName[m.Name()] = m
	}
	got, ok = pool.LargestFit(l1, byName["M1"].Size-1)
	if !ok || got.Name() != "M2" {
		t.Fatalf("LargestFit(L1, <M1) = %s, want M2", got.Name())
	}
	// Received M3 (I=4): S1 (I=8) and S2 (I=6) are smaller but keep
	// layers M3 has already pruned, so only S3 (I=4) is derivable.
	got, ok = pool.LargestFit(byName["M3"], byName["M3"].Size-1)
	if !ok || got.Name() != "S3" {
		t.Fatalf("LargestFit(M3, <M3) = %s, want S3 (S1/S2 not derivable)", got.Name())
	}
	// No capacity at all.
	if _, ok := pool.LargestFit(l1, 0); ok {
		t.Fatal("LargestFit with zero capacity should fail")
	}
}

func TestExtractStateShapesAndValues(t *testing.T) {
	cfg := vggTiny()
	pool, err := BuildPool(cfg, Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	fullModel := models.MustBuild(cfg, nil)
	global := nn.StateDict(fullModel)
	for _, m := range pool.Members {
		st, err := pool.ExtractState(global, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		// Every extracted tensor must be the prefix block of the global.
		for name, v := range st {
			g := global[name]
			if !tensor.PrefixFits(v, g) {
				t.Fatalf("%s/%s: %v not prefix of %v", m.Name(), name, v.Shape, g.Shape)
			}
			p := tensor.ExtractPrefix(g, v.Shape)
			for i := range v.Data {
				if v.Data[i] != p.Data[i] {
					t.Fatalf("%s/%s: extracted values differ", m.Name(), name)
				}
			}
		}
		// The extracted state must load into a model built at m's widths.
		sub, err := models.Build(cfg, m.Widths)
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.LoadState(sub, st); err != nil {
			t.Fatalf("%s: LoadState: %v", m.Name(), err)
		}
	}
}

func TestExtractFullIsIdentity(t *testing.T) {
	cfg := vggTiny()
	pool, err := BuildPool(cfg, Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	fullModel := models.MustBuild(cfg, nil)
	global := nn.StateDict(fullModel)
	st, err := pool.ExtractState(global, pool.Largest())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sub := models.MustBuild(cfg, nil)
	if err := nn.LoadState(sub, st); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 3, 32, 32)
	ya := fullModel.Forward(x, false)
	yb := sub.Forward(x, false)
	for i := range ya.Data {
		if math.Abs(ya.Data[i]-yb.Data[i]) > 1e-12 {
			t.Fatal("full-extraction round trip changed the model")
		}
	}
}

func TestPoolMembersLoadableAcrossArchs(t *testing.T) {
	for _, arch := range []models.Arch{models.ResNet18, models.MobileNetV2} {
		cfg := models.Config{Arch: arch, NumClasses: 5, WidthScale: 0.125, Seed: 2}
		pool, err := BuildPool(cfg, Config{P: 3})
		if err != nil {
			t.Fatal(err)
		}
		global := nn.StateDict(models.MustBuild(cfg, nil))
		rng := rand.New(rand.NewSource(8))
		x := tensor.Randn(rng, 1, 1, 3, 32, 32)
		for _, m := range pool.Members {
			st, err := pool.ExtractState(global, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, m.Name(), err)
			}
			sub := models.MustBuild(cfg, m.Widths)
			if err := nn.LoadState(sub, st); err != nil {
				t.Fatalf("%s/%s: %v", arch, m.Name(), err)
			}
			y := sub.Forward(x, false)
			if y.Shape[1] != cfg.NumClasses {
				t.Fatalf("%s/%s: bad output shape %v", arch, m.Name(), y.Shape)
			}
		}
	}
}
