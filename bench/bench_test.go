package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The harness re-executes its own binary per child; under `go test` that
// binary is the test binary, which becomes the bench when the parent test
// marks the environment.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_CHILD") != "" {
		main()
		return
	}
	os.Setenv("BENCH_TEST_CHILD", "1")
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json at the repository root is the catalogue serialised: same
// names, units, directions, bounds and workloads, within the contract's
// limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(want, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &b); err != nil {
		t.Fatal(err)
	}
	wantN, _ := json.Marshal(a)
	gotN, _ := json.Marshal(b)
	if !bytes.Equal(wantN, gotN) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with `bash bench/run.sh -spec > BENCHMARK.json`")
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end, %d per-layer metrics", len(endToEnd), len(perLayer))
	}
}

// Every workload at a fifth of its window in both modes (1-4 commits;
// popsim a 580 virtual-second horizon): the emitted metric names equal the
// catalogue's exactly, every value is finite, and every output check — the
// traced run ending on its untraced twin's weights hash among them — holds.
func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	const seconds = runSeconds / 5
	outDir := t.TempDir()
	for _, w := range workloads {
		if testing.Short() && w.name != "inproc_resnet" {
			continue
		}
		for _, trace := range []bool{false, true} {
			var inv *invocation
			var defs []metricDef
			var err error
			if trace {
				inv, err = measureTrace(w, 1, seconds, outDir)
				defs = perLayer
			} else {
				inv, err = measureE2E(w, 1, seconds, 1, outDir)
				defs = endToEnd
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if len(inv.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, catalogue has %d", w.name, trace, len(inv.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := inv.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s trace=%v: metric %s = %v (present %v)", w.name, trace, d.Name, v, ok)
				}
			}
			for _, c := range inv.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", w.name, trace, c.Name, c.Detail)
				}
			}
			if inv.Attempted < 1 {
				t.Errorf("%s trace=%v: no flights attempted", w.name, trace)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(outDir, w.name+".trace.jsonl")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// Two workers under one phase overlap; the phase's self time is what
// neither of them covers.
func TestSelfTimeUsesTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 6},
		{ID: 3, Parent: 1, Start: 4, End: 9},
		{ID: 4, Parent: 2, Start: 2, End: 3},
	}
	self := selfTimes(spans)
	want := []float64{2, 4, 5, 1}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-12 {
			t.Errorf("span %d self = %v, want %v", i+1, self[i], want[i])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, commitP50 []float64, rss []float64) string {
		r := results{Env: currentEnv(1, runSeconds), Workloads: map[string]*workloadResults{
			"wire_fanout": {EndToEnd: map[string][]float64{"commit_s_p50": commitP50, "peak_rss_mib": rss}},
		}}
		r.Env.Commit = name
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a", []float64{1.00, 1.01, 0.99}, []float64{600, 610, 590})
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, write("same", []float64{1.02, 1.00, 1.01}, []float64{605, 600, 598})); err != nil || worse {
		t.Errorf("equal runs: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, base, write("slow", []float64{1.50, 1.51, 1.49}, []float64{600, 610, 590}))
	if err != nil || !worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50%% slower commit must be worse: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, base, write("noisy", []float64{1.0, 1.5, 2.5}, []float64{600, 610, 590}))
	if err != nil || worse || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must be unresolved: worse=%v err=%v\n%s", worse, err, out.String())
	}
}
