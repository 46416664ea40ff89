package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestPopAppliesSpecFlags pins which spec flags reach a -pop run: -agg and
// -adversary move the weights hash, and -codec and -trace, which a
// population run cannot apply, are refused rather than dropped.
func TestPopAppliesSpecFlags(t *testing.T) {
	pop := []string{"-pop", "mix:n=2000,weak=0.5,churn=30", "-sched", "semiasync", "-sim-seconds", "3000"}
	weights := func(extra ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append(append([]string(nil), pop...), extra...), &out); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		_, w, ok := strings.Cut(out.String(), "weights=")
		if !ok {
			t.Fatalf("%v: no weights in %q", extra, out.String())
		}
		return strings.TrimSpace(w)
	}
	honest := weights()
	for _, flag := range [][]string{{"-agg", "trim:frac=0.2"}, {"-adversary", "scale:frac=0.25,k=4"}} {
		if got := weights(flag...); got == honest {
			t.Errorf("%v left the weights at the honest run's %s", flag, honest)
		}
	}
	for _, flag := range [][]string{{"-codec", "q8"}, {"-trace", "straggler"}} {
		err := run(append(append([]string(nil), pop...), flag...), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), "does not apply to -pop") {
			t.Errorf("%v: err = %v, want a refusal", flag, err)
		}
	}
}
