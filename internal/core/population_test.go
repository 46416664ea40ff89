package core

import (
	"math"
	"reflect"
	"testing"

	"adaptivefl/internal/data"
)

// stubShards is a ShardGen that records which (client, seed) pairs were
// cut, returning a tiny distinct dataset per call so pointer identity can
// distinguish materialisations.
func stubShards(calls *[][2]int64) ShardGen {
	return func(c int, seed int64) *data.Dataset {
		if calls != nil {
			*calls = append(*calls, [2]int64{int64(c), seed})
		}
		return &data.Dataset{Labels: []int{c}, NumClasses: 1}
	}
}

func TestParsePopulationDefaults(t *testing.T) {
	s, err := ParsePopulation("mix")
	if err != nil {
		t.Fatal(err)
	}
	if s.Weak != 0.4 || s.Medium != 0.3 || s.Strong != 0.3 {
		t.Fatalf("default mix %v/%v/%v, want 0.4/0.3/0.3", s.Weak, s.Medium, s.Strong)
	}
	if s.MeanOn != 60 || s.MeanOff != 0 || s.SlowFactor != 1 {
		t.Fatalf("default churn profile %+v", s)
	}
	if s.Samples != 20 || s.Dataset != "widar" {
		t.Fatalf("default shard config %+v", s)
	}
}

func TestParsePopulationGrammar(t *testing.T) {
	s, err := ParsePopulation("mix:n=1000000,weak=0.6,churn=20,on=45,slow=4,slowprob=0.1,samples=16,classes=5,data=cifar10")
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1_000_000 {
		t.Fatalf("n = %d", s.N)
	}
	// weak=0.6 with default medium/strong 0.3/0.3 normalises to 0.5/0.25/0.25.
	if s.Weak != 0.5 || s.Medium != 0.25 || s.Strong != 0.25 {
		t.Fatalf("normalised mix %v/%v/%v", s.Weak, s.Medium, s.Strong)
	}
	if s.MeanOn != 45 || s.MeanOff != 20 || s.SlowFactor != 4 || s.SlowProb != 0.1 {
		t.Fatalf("churn profile %+v", s)
	}
	if s.Samples != 16 || s.Classes != 5 || s.Dataset != "cifar10" {
		t.Fatalf("shard config %+v", s)
	}
}

func TestParsePopulationErrors(t *testing.T) {
	for _, spec := range []string{
		"grid",                         // unknown family
		"mix:n",                        // not key=value
		"mix:n=abc",                    // not a number
		"mix:n=-5",                     // negative
		"mix:bogus=1",                  // unknown key
		"mix:weak=0,medium=0,strong=0", // degenerate mix
		"mix:on=0",                     // zero on-window
		"mix:slow=0.5",                 // slow factor below 1
		"mix:slowprob=2",               // probability above 1
		"mix:samples=0",                // empty shards
		"mix:data=",                    // empty dataset name
	} {
		if _, err := ParsePopulation(spec); err == nil {
			t.Errorf("ParsePopulation(%q) accepted", spec)
		}
	}
}

func TestPopulationSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"mix",
		"mix:n=1000,weak=0.6,churn=30",
		"mix:n=42,on=90,churn=15,slow=3,slowprob=0.25,samples=8,classes=4,data=cifar100",
	} {
		a, err := ParsePopulation(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ParsePopulation(a.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", a.String(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip of %q changed the spec:\n%+v\n%+v", spec, a, b)
		}
	}
}

func TestPopulationMixDeterministic(t *testing.T) {
	parse := func(seed int64) PopulationSpec {
		s, err := ParsePopulation("mix:n=5000,weak=0.6,churn=20")
		if err != nil {
			t.Fatal(err)
		}
		s.Seed = seed
		return s
	}
	a, b := parse(7), parse(7)
	counts := a.MixCounts(5000)
	if counts != b.MixCounts(5000) {
		t.Fatal("same seed produced different class assignments")
	}
	// Realised shares track the normalised spec (0.5/0.25/0.25) closely.
	for i, want := range []float64{0.5, 0.25, 0.25} {
		got := float64(counts[i]) / 5000
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("class %d share %.3f, want ~%.2f", i, got, want)
		}
	}
	// A different seed keeps the shares but reshuffles the assignment.
	c := parse(8)
	diff := 0
	for i := 0; i < 5000; i++ {
		if a.ClassOf(i) != c.ClassOf(i) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("changing the seed did not move any client between classes")
	}
	// Assignment is per-client stable: no dependence on query order.
	if a.ClassOf(4999) != b.ClassOf(4999) || a.ClientSeed(4999) != b.ClientSeed(4999) {
		t.Fatal("per-client derivations depend on more than (seed, client)")
	}
}

func TestLazyPopulationRematerialisesIdentically(t *testing.T) {
	pool := testPool(t)
	spec, err := ParsePopulation("mix:n=100,weak=0.6,churn=20")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 11
	var calls [][2]int64
	pop, err := NewLazyPopulation(spec, pool, DefaultDeviceModel(), stubShards(&calls), 4)
	if err != nil {
		t.Fatal(err)
	}
	first := pop.Client(3)
	// Flood the 4-slot LRU so client 3 is evicted, then touch it again.
	for c := 10; c < 20; c++ {
		pop.Client(c)
	}
	second := pop.Client(3)
	if first == second {
		t.Fatal("client 3 was not evicted by the LRU flood")
	}
	if first.Device.Class != second.Device.Class || first.Device.Base != second.Device.Base {
		t.Fatalf("re-materialised device differs: %+v vs %+v", first.Device, second.Device)
	}
	// The shard generator saw the same deterministic seed both times.
	var seeds []int64
	for _, call := range calls {
		if call[0] == 3 {
			seeds = append(seeds, call[1])
		}
	}
	if len(seeds) != 2 || seeds[0] != seeds[1] {
		t.Fatalf("shard seeds for client 3: %v, want two identical", seeds)
	}
	if live, total := pop.Materialized(); live > 4+1 || total != int64(len(calls)) {
		t.Fatalf("audit live=%d total=%d calls=%d", live, total, len(calls))
	}
}

func TestLazyPopulationPinSurvivesEviction(t *testing.T) {
	pool := testPool(t)
	spec, err := ParsePopulation("mix:n=100")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 12
	pop, err := NewLazyPopulation(spec, pool, DefaultDeviceModel(), stubShards(nil), 2)
	if err != nil {
		t.Fatal(err)
	}
	pinned := pop.Client(1)
	pop.Pin(1)
	pop.Pin(1) // refcounted: two pins need two unpins
	for c := 20; c < 40; c++ {
		pop.Client(c)
	}
	if pop.Client(1) != pinned {
		t.Fatal("pinned client was evicted")
	}
	pop.Unpin(1)
	if pop.Client(1) != pinned {
		t.Fatal("client dropped after first of two unpins")
	}
	pop.Unpin(1)
	for c := 40; c < 60; c++ {
		pop.Client(c)
	}
	if pop.Client(1) == pinned {
		t.Fatal("fully unpinned client survived an LRU flood")
	}
}

func TestShardPopulationRemap(t *testing.T) {
	pool := testPool(t)
	spec, err := ParsePopulation("mix:n=50")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 13
	pop, err := NewLazyPopulation(spec, pool, DefaultDeviceModel(), stubShards(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewShardPopulation(pop, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if shard.Len() != 20 || shard.Offset() != 10 {
		t.Fatalf("shard shape %d/%d", shard.Len(), shard.Offset())
	}
	if got := shard.Client(0).ID; got != 10 {
		t.Fatalf("shard client 0 has base ID %d, want 10", got)
	}
	if got := shard.Client(19).ID; got != 29 {
		t.Fatalf("shard client 19 has base ID %d, want 29", got)
	}
	for _, bad := range [][2]int{{-1, 5}, {0, 0}, {40, 20}} {
		if _, err := NewShardPopulation(pop, bad[0], bad[1]); err == nil {
			t.Errorf("shard [%d,+%d) accepted", bad[0], bad[1])
		}
	}
}
