package exp

import (
	"strings"
	"testing"

	"adaptivefl/internal/baselines"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/models"
)

// tinyScale keeps exp tests fast.
func tinyScale() Scale {
	return Scale{
		Name: "tiny", Clients: 6, K: 2, Rounds: 2, EvalEvery: 1,
		SamplesPerClient: 10, TestSamples: 30, WidthScale: 0.07,
		LocalEpochs: 1, BatchSize: 5, LR: 0.05, Momentum: 0.5,
		Parallelism: 2, Seed: 3,
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "small", "paper"} {
		sc, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name != name {
			t.Fatalf("scale name %q != %q", sc.Name, name)
		}
		if sc.Clients < 1 || sc.K < 1 || sc.Rounds < 1 || sc.WidthScale <= 0 {
			t.Fatalf("degenerate scale %+v", sc)
		}
	}
	if _, err := ScaleByName("nope"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestPaperScaleMatchesPaperHyperparameters(t *testing.T) {
	sc := PaperScale()
	if sc.Clients != 100 || sc.K != 10 {
		t.Fatalf("paper population/participation wrong: %+v", sc)
	}
	if sc.BatchSize != 50 || sc.LocalEpochs != 5 || sc.LR != 0.01 || sc.Momentum != 0.5 {
		t.Fatalf("paper hyperparameters wrong: %+v", sc)
	}
	if sc.WidthScale != 1.0 {
		t.Fatalf("paper scale must use full-width models")
	}
}

func TestDatasetConfigs(t *testing.T) {
	sc := tinyScale()
	for name, classes := range map[string]int{"cifar10": 10, "cifar100": 100, "femnist": 62, "widar": 22} {
		cfg, err := DatasetConfig(name, sc)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Classes != classes {
			t.Fatalf("%s: %d classes, want %d", name, cfg.Classes, classes)
		}
	}
	if _, err := DatasetConfig("mnist", sc); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestBuildFederationShapes(t *testing.T) {
	sc := tinyScale()
	fed, err := BuildFederation(models.ResNet18, "cifar10", IID, DefaultProportions, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Clients) != sc.Clients {
		t.Fatalf("%d clients, want %d", len(fed.Clients), sc.Clients)
	}
	total := 0
	for _, c := range fed.Clients {
		if c.Data.Len() == 0 {
			t.Fatal("client with no data")
		}
		if c.Device == nil {
			t.Fatal("client with no device")
		}
		total += c.Data.Len()
	}
	if total != sc.Clients*sc.SamplesPerClient*SampleBoost("cifar10") {
		t.Fatalf("total samples %d, want %d", total, sc.Clients*sc.SamplesPerClient*SampleBoost("cifar10"))
	}
	if fed.Test.Len() != sc.TestSamples {
		t.Fatalf("test size %d", fed.Test.Len())
	}
}

func TestBuildFederationNatural(t *testing.T) {
	sc := tinyScale()
	fed, err := BuildFederation(models.ResNet18, "femnist", Natural, DefaultProportions, sc)
	if err != nil {
		t.Fatal(err)
	}
	// Natural split: each writer covers a strict class subset.
	for _, c := range fed.Clients {
		distinct := map[int]bool{}
		for _, l := range c.Data.Labels {
			distinct[l] = true
		}
		if len(distinct) >= 62 {
			t.Fatal("natural split should restrict per-writer classes")
		}
	}
}

func TestBuildFederationDirichletSkewsLabels(t *testing.T) {
	sc := tinyScale()
	sc.SamplesPerClient = 40
	iid, err := BuildFederation(models.ResNet18, "cifar10", IID, DefaultProportions, sc)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := BuildFederation(models.ResNet18, "cifar10", Dir03, DefaultProportions, sc)
	if err != nil {
		t.Fatal(err)
	}
	maxShare := func(fed *Federation) float64 {
		total := 0.0
		for _, c := range fed.Clients {
			counts := map[int]int{}
			for _, l := range c.Data.Labels {
				counts[l]++
			}
			max := 0
			for _, v := range counts {
				if v > max {
					max = v
				}
			}
			total += float64(max) / float64(c.Data.Len())
		}
		return total / float64(len(fed.Clients))
	}
	if maxShare(dir) <= maxShare(iid) {
		t.Fatalf("Dirichlet split (%v) should be more skewed than IID (%v)", maxShare(dir), maxShare(iid))
	}
}

func TestNewRunnerNames(t *testing.T) {
	sc := tinyScale()
	fed, err := BuildFederation(models.ResNet18, "cifar10", IID, DefaultProportions, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"All-Large", "Decoupled", "HeteroFL", "ScaleFL", "AdaptiveFL",
		"AdaptiveFL+C", "AdaptiveFL+S", "AdaptiveFL+Random", "AdaptiveFL+Greedy",
		"AdaptiveFL+CS", "AdaptiveFL-Coarse",
	} {
		r, err := NewRunner(name, fed, sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Name() != name {
			t.Fatalf("runner name %q != %q", r.Name(), name)
		}
	}
	if _, err := NewRunner("FedProx", fed, sc); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunCellProducesCurve(t *testing.T) {
	sc := tinyScale()
	res, err := RunCell(Cell{"cifar10", models.ResNet18, IID}, "AdaptiveFL", DefaultProportions, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) != sc.Rounds {
		t.Fatalf("%d curve points, want %d", len(res.Curve.Points), sc.Rounds)
	}
	if res.Full <= 0 || res.Full > 1 {
		t.Fatalf("full accuracy %v out of range", res.Full)
	}
	if res.Avg <= 0 {
		t.Fatal("AdaptiveFL must report avg")
	}
}

func TestTable1Output(t *testing.T) {
	var sb strings.Builder
	if err := Table1(&sb, []models.Arch{models.VGG16}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"L1", "M1", "M2", "M3", "S1", "S2", "S3", "33.6", "0.50", "0.25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
	// Any other architecture prints the same rows without the paper
	// columns, one table per architecture.
	sb.Reset()
	if err := Table1(&sb, []models.Arch{models.ResNet18, models.MobileNetV2}); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if strings.Count(out, "Table 1 — split settings") != 2 || strings.Count(out, "\nS3 ") != 2 || strings.Contains(out, "paper") {
		t.Fatalf("Table1 for resnet18,mobilenetv2:\n%s", out)
	}
	if err := Table1(&sb, []models.Arch{"bogus"}); err == nil {
		t.Fatal("Table1 accepted an unknown architecture")
	}
}

func TestBestOf(t *testing.T) {
	c := &eval.Curve{}
	c.Add(1, map[string]float64{"full": 0.5})
	c.Add(2, map[string]float64{"full": 0.8})
	c.Add(3, map[string]float64{"full": 0.7})
	if got := BestOf(c, "full"); got != 0.8 {
		t.Fatalf("BestOf = %v", got)
	}
	if got := BestOf(c, "missing"); got != 0 {
		t.Fatalf("BestOf missing = %v", got)
	}
}

func TestCollateMergesRounds(t *testing.T) {
	c := &eval.Curve{}
	c.Add(1, map[string]float64{"a": 0.1})
	c.Add(1, map[string]float64{"b": 0.2})
	c.Add(2, map[string]float64{"a": 0.3})
	merged := collate(c)
	if len(merged.Points) != 2 {
		t.Fatalf("%d points after collate, want 2", len(merged.Points))
	}
	if merged.Points[0].Acc["a"] != 0.1 || merged.Points[0].Acc["b"] != 0.2 {
		t.Fatalf("collate lost series: %+v", merged.Points[0])
	}
}

func TestAdaptiveRunnerReportsWaste(t *testing.T) {
	sc := tinyScale()
	fed, err := BuildFederation(models.ResNet18, "cifar10", IID, DefaultProportions, sc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner("AdaptiveFL+Greedy", fed, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCurve(r, fed, sc); err != nil {
		t.Fatal(err)
	}
	a := r.(*baselines.Adaptive)
	if w := a.Waste(); w <= 0 {
		t.Fatalf("greedy waste %v, want > 0", w)
	}
}
