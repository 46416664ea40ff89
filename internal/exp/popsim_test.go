package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

func popTestScale() Scale {
	sc := tinyScale()
	sc.Sched = "semiasync"
	return sc
}

func popTestSpec(t *testing.T) core.PopulationSpec {
	t.Helper()
	spec, err := core.ParsePopulation("mix:n=300,weak=0.5,churn=20,samples=8")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestHashStateDetectsSingleBit(t *testing.T) {
	mk := func() nn.State {
		st := nn.State{}
		a := tensor.New(4)
		copy(a.Data, []float64{1, 2, 3, 4})
		st["w"] = a
		return st
	}
	a, b := mk(), mk()
	if HashState(a) != HashState(b) {
		t.Fatal("identical states hash differently")
	}
	b["w"].Data[2] = math.Nextafter(b["w"].Data[2], math.Inf(1)) // one ulp
	if HashState(a) == HashState(b) {
		t.Fatal("single-bit divergence not detected")
	}
}

// TestRunPopSimDeterministic pins the flat generated-population run: two
// identical invocations must agree on every field, weights hash included.
func TestRunPopSimDeterministic(t *testing.T) {
	run := func() *PopSimResult {
		res, err := RunPopSim(nil, popTestSpec(t), popTestScale(), 1, 400, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs differ:\n%+v\n%+v", a, b)
	}
	if a.Commits < 1 {
		t.Fatal("no commits in the simulated window")
	}
	if a.Live > core.DefaultLazyCap {
		t.Fatalf("live clients %d exceed the LRU cap", a.Live)
	}
	if a.RLRows > int(a.TotalMade) {
		t.Fatalf("rl rows %d exceed materialised clients %d", a.RLRows, a.TotalMade)
	}
}

// TestRunPopSimHierarchyDeterministic does the same for the two-tier
// topology, and checks the shards actually fed the global tier.
func TestRunPopSimHierarchyDeterministic(t *testing.T) {
	run := func() *PopSimResult {
		res, err := RunPopSim(nil, popTestSpec(t), popTestScale(), 2, 400, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed hierarchy runs differ:\n%+v\n%+v", a, b)
	}
	if a.Commits < 1 || a.EdgeCommits < a.Commits {
		t.Fatalf("commits=%d edge-commits=%d: edges did not feed the global tier", a.Commits, a.EdgeCommits)
	}
	flat, err := RunPopSim(nil, popTestSpec(t), popTestScale(), 1, 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	if flat.WeightsHash == a.WeightsHash {
		t.Fatal("flat and hierarchical runs produced identical weights; the topology had no effect")
	}
}

// TestRunPopSimRejectsClassesBeyondDataset pins that the shard parameters
// are checked before the run: shards are cut on executor workers, where a
// bad class count could only panic.
func TestRunPopSimRejectsClassesBeyondDataset(t *testing.T) {
	spec, err := core.ParsePopulation("mix:n=50,classes=23")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPopSim(nil, spec, popTestScale(), 1, 10, 0); err == nil || !strings.Contains(err.Error(), "classes=23") {
		t.Fatalf("classes=23 on the 22-class widar family gave %v, want an error naming it", err)
	}
}
