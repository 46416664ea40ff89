package analyze_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/obs/analyze"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/testbed"
)

func testModelCfg() models.Config {
	return models.Config{Arch: models.ResNet18, NumClasses: 4, WidthScale: 0.07, Seed: 3}
}

// buildServer mirrors the sched package's deterministic test federation,
// so the traces audited here are the same shape the engine tests pin.
func buildServer(t *testing.T, n, k int, seed int64, observer *obs.Observer) *core.Server {
	t.Helper()
	pool, err := prune.BuildPool(testModelCfg(), prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32,
		Train: n * 24, Test: 80, Noise: 0.3, MaxShift: 1, Seed: 11}
	train, _ := data.Generate(cfg)
	rng := rand.New(rand.NewSource(5))
	parts := data.PartitionIID(rng, train.Len(), n)
	devices := core.NewPopulation(rng, n, [3]float64{4, 3, 3}, pool, core.DefaultDeviceModel())
	clients := make([]*core.Client, n)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}
	srv, err := core.NewServer(core.Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3},
		ClientsPerRound: k,
		Train:           core.TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.02, Momentum: 0.5},
		Seed:            seed, Parallelism: k,
		Observer: observer,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func testSim(t *testing.T) sched.CostModel {
	t.Helper()
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// engineRun drives one traced engine run (straggler/churn trace, late
// uploads, drops) and returns the trace bytes plus the run's own ledger
// summary — the two halves `fltrace audit` reconciles.
func engineRun(t *testing.T, policy sched.Policy, commits int) ([]byte, analyze.LedgerSummary) {
	t.Helper()
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	observer := obs.NewObserver(nil, jw)
	srv := buildServer(t, 6, 3, 43, observer)
	rt := &sched.RandomTrace{Seed: 99, MeanOn: 40, MeanOff: 5, SlowProb: 0.5, SlowFactor: 10}
	eng, err := sched.New(srv, testSim(t), rt, sched.Config{
		Policy: policy, K: 3, Extra: 2, Buffer: 2, Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(commits, nil); err != nil {
		t.Fatalf("%s: %v", policy, err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	ledger := analyze.SummarizeStats(srv.Stats())
	ledger.Policy = string(policy)
	ledger.HasDiscounts = true
	ledger.StalenessExp = eng.StalenessExp()
	ledger.DiscountSum = eng.DiscountSum()
	return buf.Bytes(), ledger
}

// hierarchyRun drives a traced two-tier run and assembles its ledger the
// way cmd ledger emission does: edge stats summed, global tier separate.
func hierarchyRun(t *testing.T) ([]byte, analyze.LedgerSummary) {
	t.Helper()
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	observer := obs.NewObserver(nil, jw)
	eds := make([]*sched.Edge, 2)
	for i := range eds {
		srv := buildServer(t, 6, 2, 50+int64(i), observer)
		eng, err := sched.New(srv, testSim(t), &sched.RandomTrace{Seed: 9, MeanOn: 40, MeanOff: 10}, sched.Config{
			Policy: sched.SemiAsync, K: 2, Epochs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		eds[i] = &sched.Edge{Srv: srv, Eng: eng}
	}
	h, err := sched.NewHierarchy(eds, testSim(t), sched.HierConfig{Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	var stats []core.RoundStats
	var discountSum, stalenessExp float64
	for _, ed := range h.Edges() {
		stats = append(stats, ed.Srv.Stats()...)
		discountSum += ed.Eng.DiscountSum()
		stalenessExp = ed.Eng.StalenessExp()
	}
	ledger := analyze.SummarizeStats(stats)
	ledger.Policy = "semiasync"
	ledger.HasDiscounts = true
	ledger.DiscountSum = discountSum
	ledger.StalenessExp = stalenessExp
	ledger.GlobalCommits = len(h.Commits())
	ledger.GlobalStalenessExp = h.StalenessExp()
	ledger.GlobalDiscountSum = h.DiscountSum()
	return buf.Bytes(), ledger
}

// TestAuditEnginePolicies is the audit's core promise: for every policy,
// replaying a real run's span stream against that run's own ledger finds
// zero violations — outcome census, byte conservation, staleness replay
// and discount sums all reconcile.
func TestAuditEnginePolicies(t *testing.T) {
	policies := []sched.Policy{sched.Sync, sched.DeadlineReuse, sched.SemiAsync}
	if testing.Short() {
		policies = []sched.Policy{sched.DeadlineReuse}
	}
	for _, policy := range policies {
		trace, ledger := engineRun(t, policy, 3)
		violations, err := analyze.Audit(bytes.NewReader(trace), &ledger)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(violations) != 0 {
			t.Fatalf("%s: audit violations on a clean run:\n%s", policy, strings.Join(violations, "\n"))
		}
		// The stream-internal invariants hold without a ledger too.
		violations, err = analyze.Audit(bytes.NewReader(trace), nil)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if len(violations) != 0 {
			t.Fatalf("%s: ledger-less audit violations:\n%s", policy, strings.Join(violations, "\n"))
		}
	}
}

// TestAuditHierarchy extends the zero-violation promise to the two-tier
// topology: edge commit census, down-sync version replay, backhaul FIFO
// staleness and global discount sums.
func TestAuditHierarchy(t *testing.T) {
	trace, ledger := hierarchyRun(t)
	violations, err := analyze.Audit(bytes.NewReader(trace), &ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("hierarchy audit violations on a clean run:\n%s", strings.Join(violations, "\n"))
	}
}

// TestAuditDetectsTampering proves the audit is not vacuous: a single
// flipped span outcome breaks the commit census even without a ledger,
// and a ledger off by one dispatch is caught too.
func TestAuditDetectsTampering(t *testing.T) {
	trace, ledger := engineRun(t, sched.Sync, 2)

	tampered := bytes.Replace(trace, []byte(`"outcome":"merged"`), []byte(`"outcome":"late"`), 1)
	if bytes.Equal(tampered, trace) {
		t.Fatal("trace has no merged flight to tamper with")
	}
	violations, err := analyze.Audit(bytes.NewReader(tampered), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatal("flipped span outcome went unnoticed")
	}

	bad := ledger
	bad.Dispatches++
	violations, err = analyze.Audit(bytes.NewReader(trace), &bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatal("ledger off by one dispatch went unnoticed")
	}

	bad = ledger
	bad.DiscountSum += 0.25
	violations, err = analyze.Audit(bytes.NewReader(trace), &bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatal("perturbed discount sum went unnoticed")
	}
}

// TestSummaryDeterministic pins the report contract: two same-seed runs
// summarize to byte-identical reports, and the report carries the
// sections the CLI promises.
func TestSummaryDeterministic(t *testing.T) {
	render := func(trace []byte) string {
		s, err := analyze.Summarize(bytes.NewReader(trace))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		s.Write(&out, 5)
		return out.String()
	}
	traceA, _ := engineRun(t, sched.SemiAsync, 3)
	traceB, _ := engineRun(t, sched.SemiAsync, 3)
	if !bytes.Equal(traceA, traceB) {
		t.Fatal("same-seed traces differ; summary determinism is untestable")
	}
	a, b := render(traceA), render(traceB)
	if a != b {
		t.Fatalf("same-seed summaries differ:\n%s\nvs\n%s", a, b)
	}
	for _, section := range []string{"== overview ==", "== bytes ==", "== critical path ==",
		"== flight duration (virtual s) ==", "== staleness of merged/late-reused flights =="} {
		if !strings.Contains(a, section) {
			t.Errorf("summary missing section %q", section)
		}
	}
	if t.Failed() {
		t.Logf("summary:\n%s", a)
	}

	hier, _ := hierarchyRun(t)
	h1, h2 := render(hier), render(hier)
	if h1 != h2 {
		t.Fatal("re-rendering the same hierarchy trace differs")
	}
	if !strings.Contains(h1, "== hierarchy ==") || !strings.Contains(h1, "mean_lag_s") {
		t.Errorf("hierarchy summary missing backhaul stats:\n%s", h1)
	}
}

// TestReaderSeparatesStreams pins the line discipline both readers share:
// span scans skip wall records and blank lines, wall scans keep only wall
// records, and a final line without a trailing newline still parses.
func TestReaderSeparatesStreams(t *testing.T) {
	mixed := `{"kind":"flight","client":3,"flight":9,"outcome":"merged"}

{"kind":"wall","flight":9,"side":"server","route":"train","seconds":0.5}
{"kind":"commit","round":1,"merged":1}`
	var spans []obs.Span
	if err := analyze.ForEachSpan(strings.NewReader(mixed), func(sp obs.Span) error {
		spans = append(spans, sp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Kind != obs.KindFlight || spans[1].Kind != obs.KindCommit {
		t.Fatalf("span scan saw %+v", spans)
	}
	if spans[0].Flight != 9 || spans[0].Client != 3 {
		t.Fatalf("span fields lost: %+v", spans[0])
	}
	var walls []obs.WallRecord
	if err := analyze.ForEachWall(strings.NewReader(mixed), func(r obs.WallRecord) error {
		walls = append(walls, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(walls) != 1 || walls[0].Flight != 9 || walls[0].Side != "server" {
		t.Fatalf("wall scan saw %+v", walls)
	}

	if err := analyze.ForEachSpan(strings.NewReader("not json\n"), func(obs.Span) error { return nil }); err == nil {
		t.Fatal("malformed line did not error")
	}
}
