package data

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateShapesAndBalance(t *testing.T) {
	cfg := CIFAR10Like(200, 50, 1)
	train, test := Generate(cfg)
	if train.Len() != 200 || test.Len() != 50 {
		t.Fatalf("sizes %d/%d", train.Len(), test.Len())
	}
	if got := train.SampleShape(); got[0] != 3 || got[1] != 32 || got[2] != 32 {
		t.Fatalf("shape %v", got)
	}
	counts := train.ClassCounts()
	for c, n := range counts {
		if n != 20 {
			t.Fatalf("class %d has %d samples, want 20", c, n)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a, _ := Generate(CIFAR10Like(30, 10, 42))
	b, _ := Generate(CIFAR10Like(30, 10, 42))
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed should reproduce data")
		}
	}
	c, _ := Generate(CIFAR10Like(30, 10, 43))
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestDatasetConfigsMatchPaperShapes(t *testing.T) {
	cases := []struct {
		cfg      SynthConfig
		classes  int
		channels int
		size     int
	}{
		{CIFAR10Like(10, 10, 1), 10, 3, 32},
		{CIFAR100Like(10, 10, 1), 100, 3, 32},
		{FEMNISTLike(10, 10, 1), 62, 1, 32},
		{WidarLike(10, 10, 1), 22, 1, 20},
	}
	for _, c := range cases {
		if c.cfg.Classes != c.classes || c.cfg.Channels != c.channels || c.cfg.Size != c.size {
			t.Errorf("%s: %+v", c.cfg.Name, c.cfg)
		}
	}
}

func TestSubsetAndGather(t *testing.T) {
	train, _ := Generate(CIFAR10Like(40, 10, 2))
	sub := train.Subset([]int{3, 7, 11})
	if sub.Len() != 3 {
		t.Fatalf("Subset len %d", sub.Len())
	}
	if sub.Labels[0] != train.Labels[3] || sub.Labels[2] != train.Labels[11] {
		t.Fatal("Subset labels wrong")
	}
	x, labels := train.Gather([]int{5, 6})
	if x.Shape[0] != 2 || labels[0] != train.Labels[5] {
		t.Fatal("Gather wrong")
	}
	sz := 3 * 32 * 32
	for i := 0; i < sz; i++ {
		if x.Data[i] != train.X.Data[5*sz+i] {
			t.Fatal("Gather copied wrong sample")
		}
	}
}

func TestBatchesCoverDatasetOnce(t *testing.T) {
	train, _ := Generate(CIFAR10Like(37, 10, 3))
	rng := rand.New(rand.NewSource(1))
	batches := train.Batches(rng, 10)
	seen := make(map[int]bool)
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 37 {
		t.Fatalf("covered %d of 37", len(seen))
	}
	if len(batches[0]) != 10 || len(batches[3]) != 7 {
		t.Fatalf("batch sizes wrong: %d, %d", len(batches[0]), len(batches[3]))
	}
}

func TestPartitionIIDProperty(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw)%200 + 20
		clients := int(cRaw)%10 + 2
		rng := rand.New(rand.NewSource(int64(nRaw)*31 + int64(cRaw)))
		parts := PartitionIID(rng, n, clients)
		seen := make(map[int]bool)
		for _, p := range parts {
			for _, i := range p {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		if len(seen) != n {
			return false
		}
		// Near-equal shard sizes.
		for _, p := range parts {
			if len(p) < n/clients || len(p) > n/clients+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDirichletCoversAllSamplesOnce(t *testing.T) {
	train, _ := Generate(CIFAR10Like(500, 10, 6))
	rng := rand.New(rand.NewSource(7))
	parts := PartitionDirichlet(rng, train.Labels, 10, 20, 0.3)
	seen := make(map[int]int)
	for _, p := range parts {
		for _, i := range p {
			seen[i]++
		}
	}
	// Empty-client top-up may duplicate a sample; everything else must
	// appear exactly once, and every client must be non-empty.
	dups := 0
	for i := 0; i < train.Len(); i++ {
		switch seen[i] {
		case 0:
			t.Fatalf("sample %d unassigned", i)
		case 1:
		default:
			dups += seen[i] - 1
		}
	}
	if dups > 20 {
		t.Fatalf("too many duplicated samples: %d", dups)
	}
	for c, p := range parts {
		if len(p) == 0 {
			t.Fatalf("client %d empty", c)
		}
	}
}

// skewOf measures label skew as the mean over clients of the max class
// share — 1/classes for perfectly uniform, →1 for single-class clients.
func skewOf(parts [][]int, labels []int, classes int) float64 {
	total := 0.0
	n := 0
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		byClass := make([]int, classes)
		for _, i := range p {
			byClass[labels[i]]++
		}
		max := 0
		for _, v := range byClass {
			if v > max {
				max = v
			}
		}
		total += float64(max) / float64(len(p))
		n++
	}
	return total / float64(n)
}

func TestDirichletAlphaControlsSkew(t *testing.T) {
	train, _ := Generate(CIFAR10Like(2000, 10, 8))
	rng := rand.New(rand.NewSource(9))
	loAlpha := PartitionDirichlet(rng, train.Labels, 10, 20, 0.1)
	hiAlpha := PartitionDirichlet(rng, train.Labels, 10, 20, 100)
	skewLo := skewOf(loAlpha, train.Labels, 10)
	skewHi := skewOf(hiAlpha, train.Labels, 10)
	if skewLo <= skewHi {
		t.Fatalf("alpha=0.1 skew %.3f should exceed alpha=100 skew %.3f", skewLo, skewHi)
	}
	if skewHi > 0.3 {
		t.Fatalf("alpha=100 should be near-IID, got max-share %.3f", skewHi)
	}
}

func TestDirichletRejectsBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha <= 0")
		}
	}()
	PartitionDirichlet(rand.New(rand.NewSource(1)), []int{0, 1}, 2, 2, 0)
}

func TestGammaDrawMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, shape := range []float64{0.3, 1, 4.5} {
		n := 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += gammaDraw(rng, shape)
		}
		mean := sum / float64(n)
		if math.Abs(mean-shape)/shape > 0.1 {
			t.Fatalf("Gamma(%v) sample mean %.3f, want ~%.3f", shape, mean, shape)
		}
	}
}

func TestGenerateFederatedWriters(t *testing.T) {
	cfg := FEMNISTLike(0, 60, 11)
	clients, test, err := GenerateFederatedWriters(cfg, WriterConfig{
		Writers: 12, SamplesPerWriter: 30, ClassesPerWriter: 10,
		StyleGain: 0.2, StyleOffset: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) != 12 || test.Len() != 60 {
		t.Fatalf("sizes: %d clients, %d test", len(clients), test.Len())
	}
	for w, d := range clients {
		if d.Len() != 30 {
			t.Fatalf("writer %d has %d samples", w, d.Len())
		}
		distinct := make(map[int]bool)
		for _, l := range d.Labels {
			distinct[l] = true
		}
		if len(distinct) > 10 {
			t.Fatalf("writer %d covers %d classes, cap is 10", w, len(distinct))
		}
	}
}

func TestGenerateFederatedWritersErrors(t *testing.T) {
	cfg := FEMNISTLike(0, 10, 1)
	if _, _, err := GenerateFederatedWriters(cfg, WriterConfig{Writers: 0, SamplesPerWriter: 1, ClassesPerWriter: 1}); err == nil {
		t.Fatal("expected error for zero writers")
	}
	if _, _, err := GenerateFederatedWriters(cfg, WriterConfig{Writers: 1, SamplesPerWriter: 1, ClassesPerWriter: 999}); err == nil {
		t.Fatal("expected error for too many classes per writer")
	}
}

func TestSuperclassStructureIsHarder(t *testing.T) {
	// CIFAR-100-like prototypes within a superclass must be closer to each
	// other than across superclasses (that is what makes it harder).
	cfg := CIFAR100Like(0, 0, 12)
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := prototypes(rng, cfg)
	dist := func(a, b int) float64 {
		s := 0.0
		for i := range protos[a].Data {
			d := protos[a].Data[i] - protos[b].Data[i]
			s += d * d
		}
		return s
	}
	within := dist(0, 1)  // same superclass (0-4)
	across := dist(0, 97) // different superclass
	if within >= across {
		t.Fatalf("within-superclass distance %.2f should be < across %.2f", within, across)
	}
}
