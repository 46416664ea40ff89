package sched_test

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/obs/analyze"
	"adaptivefl/internal/sched"
)

// robustPrecedence reads the outcome precedence docs/ROBUST.md fixes
// ("Dropped > Failed > ... > Merged") as outcome names.
func robustPrecedence(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/ROBUST.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("Outcome precedence in the ledger is `([^`]+)`").FindSubmatch(doc)
	if m == nil {
		t.Fatal("docs/ROBUST.md states no outcome precedence")
	}
	order := strings.Split(strings.Join(strings.Fields(string(m[1])), " "), " > ")
	if len(order) != 7 || order[len(order)-1] != "Merged" {
		t.Fatalf("docs/ROBUST.md precedence %q: want seven outcomes ending in Merged", m[1])
	}
	return order
}

// outcomeField names each label's count field, the same in
// core.RoundStats, sched.Commit and analyze.LedgerSummary.
var outcomeField = map[string]string{
	obs.OutcomeMerged: "Merged", obs.OutcomeClipped: "Clipped", obs.OutcomeLate: "Late",
	obs.OutcomeLateReused: "LateReused", obs.OutcomeRejected: "Rejected",
	obs.OutcomeFailed: "Failed", obs.OutcomeDropped: "Dropped",
}

// outcomeCounts reads the outcome count fields of a RoundStats, Commit or
// LedgerSummary, keeping the nonzero ones.
func outcomeCounts(v any) map[string]int {
	rv := reflect.ValueOf(v)
	got := map[string]int{}
	for _, f := range outcomeField {
		if n := int(rv.FieldByName(f).Int()); n != 0 {
			got[f] = n
		}
	}
	return got
}

// TestOneClassificationEveryCount walks every dispatch Record can
// produce. Each wears the label docs/ROBUST.md's precedence gives its
// flags, and RoundStats, a one-commit sched.Commit and SummarizeStats
// count it in that label's field: Clipped ⊆ Merged everywhere, and a
// commit's Merged also counts the late-reused update it applied.
func TestOneClassificationEveryCount(t *testing.T) {
	order := robustPrecedence(t)
	set := func(d core.Dispatch, name string) bool {
		switch name {
		case "Dropped":
			return d.Dropped
		case "Failed":
			return d.Failed
		case "Rejected":
			return d.Rejected
		case "LateReused":
			return d.LateReused
		case "Late":
			return d.Late
		case "Clipped":
			return d.Clipped
		case "Merged":
			return true
		}
		t.Fatalf("docs/ROBUST.md names unknown outcome %q", name)
		return false
	}
	labelOf := map[string]string{}
	for label, f := range outcomeField {
		labelOf[f] = label
	}

	srv := buildServer(t, 4, 2, 1)
	sent, got := srv.Pool().Largest(), srv.Pool().Smallest()
	base := core.Dispatch{Client: 1, Sent: sent, Got: got, SentBytes: 800, GotBytes: 320}
	with := func(mut func(*core.Dispatch)) core.Dispatch {
		d := base
		mut(&d)
		return d
	}
	cases := []struct {
		name  string
		d     core.Dispatch
		label string
	}{
		{"merged", base, obs.OutcomeMerged},
		{"clipped", with(func(d *core.Dispatch) { d.Clipped = true }), obs.OutcomeClipped},
		{"rejected", with(func(d *core.Dispatch) { d.Rejected = true }), obs.OutcomeRejected},
		{"rejected and late", with(func(d *core.Dispatch) { d.Rejected, d.Late = true, true }), obs.OutcomeRejected},
		{"late", with(func(d *core.Dispatch) { d.Late = true }), obs.OutcomeLate},
		{"late reused", with(func(d *core.Dispatch) { d.Late, d.LateReused = true, true }), obs.OutcomeLateReused},
		{"failed", with(func(d *core.Dispatch) { d.Failed, d.Got, d.GotBytes = true, sent, 0 }), obs.OutcomeFailed},
		{"dropped", with(func(d *core.Dispatch) { d.Dropped, d.Got, d.GotBytes = true, sent, 0 }), obs.OutcomeDropped},
		{"failed and dropped", with(func(d *core.Dispatch) { d.Failed, d.Dropped, d.Got, d.GotBytes = true, true, sent, 0 }), obs.OutcomeDropped},
		{"train skipped and dropped", with(func(d *core.Dispatch) { d.TrainSkipped, d.Dropped, d.Got, d.GotBytes = true, true, sent, 0 }), obs.OutcomeDropped},
	}
	for _, tc := range cases {
		first := ""
		for _, name := range order {
			if set(tc.d, name) {
				first = labelOf[name]
				break
			}
		}
		if got := tc.d.Label(); got != tc.label || got != first {
			t.Fatalf("%s: Label() = %q; want %q (docs/ROBUST.md's precedence gives %q)", tc.name, got, tc.label, first)
		}

		want := map[string]int{outcomeField[tc.label]: 1}
		if tc.label == obs.OutcomeClipped {
			want["Merged"] = 1
		}
		var st core.RoundStats
		st.Add(tc.d)
		if got := outcomeCounts(st); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RoundStats counts %v; want %v", tc.name, got, want)
		}
		skipped := 0
		if tc.d.TrainSkipped {
			skipped = 1
		}
		if st.TrainSkipped != skipped {
			t.Fatalf("%s: RoundStats.TrainSkipped = %d; want %d", tc.name, st.TrainSkipped, skipped)
		}
		sum := analyze.SummarizeStats([]core.RoundStats{st})
		if got := outcomeCounts(sum); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SummarizeStats counts %v; want %v", tc.name, got, want)
		}
		if sum.TrainSkipped != st.TrainSkipped || sum.Dispatches != 1 {
			t.Fatalf("%s: SummarizeStats skipped=%d dispatches=%d; want %d, 1", tc.name, sum.TrainSkipped, sum.Dispatches, st.TrainSkipped)
		}

		// The dispatches that merge carry their update into the commit.
		var updates []agg.Update
		if tc.label == obs.OutcomeMerged || tc.label == obs.OutcomeClipped || tc.label == obs.OutcomeLateReused {
			updates = []agg.Update{{State: srv.Global(), Weight: 1}}
			want["Merged"] = 1
		}
		eng, err := sched.New(srv, testSim(t), nil, sched.Config{Policy: sched.Sync, K: 2, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := eng.CommitLedger(st, updates)
		if err != nil {
			t.Fatal(err)
		}
		if got := outcomeCounts(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Commit counts %v; want %v", tc.name, got, want)
		}
	}
}
