// Golden round-trip and fuzz coverage for every grammar ported onto the
// spec tokenizer. The golden strings are the documented examples from
// docs/ and README — each must parse, and each grammar with a canonical
// String()/Name() rendering must reach a fixed point (parse → render →
// parse → render is stable).
package spec_test

import (
	"reflect"
	"testing"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/sched"
)

// Documented population specs (docs/SCHED.md, docs/ROBUST.md, README).
var goldenPopulations = []string{
	"mix",
	"mix:n=1000000,weak=0.6,churn=30",
	"mix:n=1000000,weak=0.6,churn=30,on=60,slow=4,slowprob=0.1,samples=20",
	"mix:on=60,churn=20,slow=4,slowprob=0.1,samples=20,classes=8,data=widar",
}

// Documented adversary specs (docs/ROBUST.md, README).
var goldenAdversaries = []string{
	"signflip",
	"signflip:frac=0.3",
	"scale:frac=0.3,k=10",
	"freeride",
	"stale-replay",
	"corrupt",
	"mix:frac=0.3,signflip=1,scale=1",
}

// Documented trace specs (docs/SCHED.md).
var goldenTraces = []string{
	"",
	"always",
	"straggler",
	"straggler:slow=10,prob=0.5,on=30",
	"churn:on=60,off=20,slow=4,prob=0.2",
	"churn:on=30,off=10",
	"churn:on=40",
}

// Documented aggregation policies (docs/ROBUST.md, README).
var goldenPolicies = []string{
	"",
	"mean",
	"trim",
	"trim:frac=0.2",
	"trim:frac=0.45",
	"krum",
	"krum:frac=0.2,m=2",
	"clip",
	"clip:tau=5",
	"clip:tau=8+trim:frac=0.45",
	"clip:tau=5+trim:frac=0.2",
}

func TestGoldenPopulationRoundTrip(t *testing.T) {
	for _, s := range goldenPopulations {
		p, err := core.ParsePopulation(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		canon := p.String()
		p2, err := core.ParsePopulation(canon)
		if err != nil {
			t.Fatalf("%q canonical %q: %v", s, canon, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("%q: reparse of %q diverged:\n%+v\n%+v", s, canon, p, p2)
		}
		if got := p2.String(); got != canon {
			t.Fatalf("%q: canonical form not a fixed point: %q then %q", s, canon, got)
		}
	}
}

func TestGoldenAdversaryRoundTrip(t *testing.T) {
	for _, s := range goldenAdversaries {
		a, err := core.ParseAdversary(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		canon := a.String()
		a2, err := core.ParseAdversary(canon)
		if err != nil {
			t.Fatalf("%q canonical %q: %v", s, canon, err)
		}
		if a != a2 {
			t.Fatalf("%q: reparse of %q diverged: %+v vs %+v", s, canon, a, a2)
		}
		if got := a2.String(); got != canon {
			t.Fatalf("%q: canonical form not a fixed point: %q then %q", s, canon, got)
		}
	}
}

func TestGoldenTraceParses(t *testing.T) {
	for _, s := range goldenTraces {
		if _, err := sched.ParseTrace(s, 1, nil); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
}

func TestGoldenPolicyRoundTrip(t *testing.T) {
	for _, s := range goldenPolicies {
		pol, _, err := agg.ParsePolicy(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		canon := pol.Name()
		pol2, _, err := agg.ParsePolicy(canon)
		if err != nil {
			t.Fatalf("%q canonical %q: %v", s, canon, err)
		}
		if got := pol2.Name(); got != canon {
			t.Fatalf("%q: canonical form not a fixed point: %q then %q", s, canon, got)
		}
	}
}

func TestTraceRejectsUnknownParam(t *testing.T) {
	for _, s := range []string{"straggler:bogus=1", "churn:on=40,nope=2", "always:x=1"} {
		if _, err := sched.ParseTrace(s, 1, nil); err == nil {
			t.Fatalf("%q: expected an unknown-param error", s)
		}
	}
}

// FuzzSpecGrammars throws arbitrary strings at every spec-backed grammar:
// no input may panic, and any accepted input must reach a canonical fixed
// point where the grammar renders one.
func FuzzSpecGrammars(f *testing.F) {
	for _, s := range goldenPopulations {
		f.Add(s)
	}
	for _, s := range goldenAdversaries {
		f.Add(s)
	}
	for _, s := range goldenTraces {
		f.Add(s)
	}
	for _, s := range goldenPolicies {
		f.Add(s)
	}
	// Retired spellings (an adversary after a trace's ';', the
	// population's adv= keys): no grammar accepts them, none may panic.
	f.Add("churn:on=40;signflip:frac=0.3")
	f.Add("mix:n=100000,adv=scale,advfrac=0.25,advk=4")
	f.Add("mix:n=1e9")
	f.Add("mix:n=NaN")
	f.Add("trim:frac=+Inf")
	f.Fuzz(func(t *testing.T, s string) {
		if p, err := core.ParsePopulation(s); err == nil {
			// Share normalisation is contractive, not exactly idempotent
			// (re-normalising a ≈1.0 sum can drift by an ULP), so the
			// property here is acceptance of every canonical rendering,
			// not a bit-exact fixed point — the golden test pins that for
			// the documented specs, whose shares normalise exactly.
			canon := p.String()
			p2, err := core.ParsePopulation(canon)
			if err != nil {
				t.Fatalf("population %q: canonical %q rejected: %v", s, canon, err)
			}
			if _, err := core.ParsePopulation(p2.String()); err != nil {
				t.Fatalf("population %q: second canonical %q rejected: %v", s, p2.String(), err)
			}
		}
		if a, err := core.ParseAdversary(s); err == nil {
			canon := a.String()
			if canon != "" {
				a2, err := core.ParseAdversary(canon)
				if err != nil {
					t.Fatalf("adversary %q: canonical %q rejected: %v", s, canon, err)
				}
				if got := a2.String(); got != canon {
					t.Fatalf("adversary %q: %q then %q", s, canon, got)
				}
			}
		}
		if pol, _, err := agg.ParsePolicy(s); err == nil {
			canon := pol.Name()
			if _, _, err := agg.ParsePolicy(canon); err != nil {
				t.Fatalf("policy %q: canonical %q rejected: %v", s, canon, err)
			}
		}
		sched.ParseTrace(s, 1, nil)
	})
}
