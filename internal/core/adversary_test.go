package core

import (
	"math"
	"math/bits"
	"strings"
	"testing"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/tensor"
)

// stateOf builds a single-tensor 1-D state for transform tests.
func stateOf(t *testing.T, vals []float64) nn.State {
	t.Helper()
	return nn.State{"w": tensor.FromSlice(vals, len(vals))}
}

func TestParseAdversaryGrammar(t *testing.T) {
	cases := []struct {
		spec string
		want AdversarySpec
	}{
		{"", AdversarySpec{}},
		{"signflip", AdversarySpec{Frac: 0.2, Weights: [numBehaviors]float64{1, 0, 0, 0, 0}, K: 10}},
		{"signflip:frac=0.5", AdversarySpec{Frac: 0.5, Weights: [numBehaviors]float64{1, 0, 0, 0, 0}, K: 10}},
		{"scale:frac=0.3,k=5", AdversarySpec{Frac: 0.3, Weights: [numBehaviors]float64{0, 1, 0, 0, 0}, K: 5}},
		{"freeride", AdversarySpec{Frac: 0.2, Weights: [numBehaviors]float64{0, 0, 1, 0, 0}, K: 10}},
		{"stale-replay:frac=1", AdversarySpec{Frac: 1, Weights: [numBehaviors]float64{0, 0, 0, 1, 0}, K: 10}},
		{"corrupt", AdversarySpec{Frac: 0.2, Weights: [numBehaviors]float64{0, 0, 0, 0, 1}, K: 10}},
		{"mix", AdversarySpec{Frac: 0.2, Weights: [numBehaviors]float64{1, 1, 0, 0, 0}, K: 10}},
		{"mix:frac=0.4,signflip=2,corrupt=1",
			AdversarySpec{Frac: 0.4, Weights: [numBehaviors]float64{2, 0, 0, 0, 1}, K: 10}},
	}
	for _, tc := range cases {
		got, err := ParseAdversary(tc.spec)
		if err != nil {
			t.Fatalf("ParseAdversary(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseAdversary(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseAdversaryErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"signflip:frac=2",    // frac > 1
		"signflip:frac=-0.1", // negative
		"signflip:scale=1",   // behavior weight outside mix
		"signflip:frac",      // not key=value
		"signflip:frac=x",    // not a float
		"scale:k=0.5",        // k < 1
		"mix:zap=1",          // unknown param
	} {
		if _, err := ParseAdversary(spec); err == nil {
			t.Fatalf("ParseAdversary(%q) accepted", spec)
		}
	}
}

func TestAdversarySpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"", "signflip", "scale:frac=0.3,k=5", "freeride:frac=0.1",
		"stale-replay", "corrupt:frac=0.25", "mix",
		"mix:frac=0.4,signflip=2,corrupt=1,k=3",
	} {
		a, err := ParseAdversary(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseAdversary(a.String())
		if err != nil {
			t.Fatalf("reparse %q -> %q: %v", spec, a.String(), err)
		}
		if back != a {
			t.Fatalf("round trip %q -> %q: %+v vs %+v", spec, a.String(), back, a)
		}
	}
}

func TestBehaviorOfDeterministicFraction(t *testing.T) {
	a, err := ParseAdversary("mix:frac=0.3,signflip=1,corrupt=3")
	if err != nil {
		t.Fatal(err)
	}
	a.Seed = 42
	const n = 4000
	counts := map[Behavior]int{}
	for c := 0; c < n; c++ {
		b := a.BehaviorOf(c)
		counts[b]++
		if b != a.BehaviorOf(c) {
			t.Fatalf("client %d behavior not stable", c)
		}
		if b != Honest && b != SignFlip && b != Corrupt {
			t.Fatalf("client %d drew %v, outside the mix", c, b)
		}
	}
	adv := n - counts[Honest]
	if frac := float64(adv) / n; math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("realised adversarial fraction %v, want ~0.3", frac)
	}
	// Weight 1:3 between signflip and corrupt.
	if r := float64(counts[Corrupt]) / float64(counts[SignFlip]); r < 2 || r > 4.5 {
		t.Fatalf("corrupt:signflip ratio %v, want ~3", r)
	}
	// A different seed must redraw the attacker set.
	b := a
	b.Seed = 43
	same := true
	for c := 0; c < 100; c++ {
		if a.BehaviorOf(c) != b.BehaviorOf(c) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 drew identical behavior for 100 clients")
	}
	// Boundary fractions.
	off := AdversarySpec{}
	one, _ := ParseAdversary("freeride:frac=1")
	for c := 0; c < 100; c++ {
		if off.BehaviorOf(c) != Honest {
			t.Fatal("zero spec drew an adversary")
		}
		if one.BehaviorOf(c) != FreeRide {
			t.Fatal("frac=1 spec drew an honest client")
		}
	}
}

func TestCorruptPayloadDeterministic(t *testing.T) {
	a := AdversarySpec{Frac: 1, Seed: 7}
	orig := make([]byte, 257)
	for i := range orig {
		orig[i] = byte(i)
	}
	flip := func(c int) []byte {
		p := append([]byte(nil), orig...)
		a.CorruptPayload(c, p)
		return p
	}
	p1, p2 := flip(3), flip(3)
	if string(p1) != string(p2) {
		t.Fatal("same (seed, client) corrupted differently")
	}
	changed := 0
	for i := range orig {
		changed += bits.OnesCount8(p1[i] ^ orig[i])
	}
	if changed == 0 || changed > 8 {
		t.Fatalf("corruption flipped %d bits, want 1..8", changed)
	}
	if string(flip(4)) == string(p1) {
		t.Fatal("distinct clients corrupted identically")
	}
	a.CorruptPayload(3, nil) // must not panic
}

func TestMutateBehaviors(t *testing.T) {
	sent := stateOf(t, []float64{1, 1, 1, 1})
	trained := stateOf(t, []float64{2, 3, 1, 0})
	a := AdversarySpec{K: 10}
	check := func(b Behavior, want []float64) {
		t.Helper()
		out := a.Mutate(b, trained, sent)
		for i, x := range out["w"].Data {
			if x != want[i] {
				t.Fatalf("%v: got %v, want %v", b, out["w"].Data, want)
			}
		}
	}
	check(SignFlip, []float64{0, -1, 1, 2})      // ref − delta
	check(ScaleAttack, []float64{11, 21, 1, -9}) // ref + 10·delta
	check(FreeRide, []float64{1, 1, 1, 1})       // ref untouched
	// Honest and the stateful behaviors pass through unchanged.
	for _, b := range []Behavior{Honest, StaleReplay, Corrupt} {
		out := a.Mutate(b, trained, sent)
		for i, x := range out["w"].Data {
			if x != trained["w"].Data[i] {
				t.Fatalf("%v mutated the trained state", b)
			}
		}
	}
	if trained["w"].Data[0] != 2 {
		t.Fatal("Mutate modified its input")
	}
}

func TestPoisonStateRejectedByGuard(t *testing.T) {
	st := stateOf(t, []float64{1, 2, 3})
	if !StateFinite(st) {
		t.Fatal("clean state flagged non-finite")
	}
	poisoned := poisonState(st)
	if StateFinite(poisoned) {
		t.Fatal("poisoned state passed the finiteness guard")
	}
	if !StateFinite(st) {
		t.Fatal("poisonState mutated its input")
	}
	if StateFinite(stateOf(t, []float64{1, math.Inf(-1)})) {
		t.Fatal("Inf passed the finiteness guard")
	}
}

// TestParsePopulationRejectsAdversaryKeys pins that the population
// grammar names no adversary: the retired adv=/advfrac=/advk= keys are
// unknown params like any other, so -adversary is the only way in.
func TestParsePopulationRejectsAdversaryKeys(t *testing.T) {
	for _, spec := range []string{
		"mix:n=100,adv=scale,advfrac=0.25,advk=4",
		"mix:n=10,adv=mix",
		"mix:n=10,advfrac=0.3",
		"mix:n=10,advk=5",
	} {
		_, err := ParsePopulation(spec)
		if err == nil || !strings.Contains(err.Error(), "unknown population param") {
			t.Fatalf("ParsePopulation(%q) = %v, want an unknown-param error", spec, err)
		}
	}
}

func TestNewServerRejectsBadAggSpec(t *testing.T) {
	pool := testPool(t)
	clients, _ := testClients(t, 4, pool)
	_, err := NewServer(Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3},
		ClientsPerRound: 2, Train: quickTrain(), Seed: 1, Agg: "bogus",
	}, clients)
	if err == nil {
		t.Fatal("bad Agg spec accepted")
	}
}
