package sched_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
)

// TestRandomTraceRetireBounded is the compaction regression test: a
// long-horizon monotonic query stream with Retire behind it must hold a
// bounded segment count, while answering every query exactly as an
// un-retired twin does.
func TestRandomTraceRetireBounded(t *testing.T) {
	const clients = 6
	tr := &sched.RandomTrace{Seed: 7, MeanOn: 5, MeanOff: 5}
	ref := &sched.RandomTrace{Seed: 7, MeanOn: 5, MeanOff: 5}
	maxHeld := 0
	for now := 0.0; now < 20_000; now += 3 {
		for c := 0; c < clients; c++ {
			u1, s1, e1 := tr.Window(c, now)
			u2, s2, e2 := ref.Window(c, now)
			if u1 != u2 || s1 != s2 || e1 != e2 {
				t.Fatalf("t=%.0f client %d: retired trace answers (%v,%v,%v), reference (%v,%v,%v)",
					now, c, u1, s1, e1, u2, s2, e2)
			}
		}
		tr.Retire(now)
		if n := tr.SegmentCount(); n > maxHeld {
			maxHeld = n
		}
	}
	// Bounded: per client the active window plus the compaction slack.
	// Without Retire the same horizon accretes thousands per client.
	if limit := clients * 64; maxHeld > limit {
		t.Fatalf("retired trace held %d segments (limit %d)", maxHeld, limit)
	}
	if ref.SegmentCount() < clients*1000 {
		t.Fatalf("reference trace held only %d segments; horizon too short to exercise compaction", ref.SegmentCount())
	}
}

func popTestSpec(seed int64) core.PopulationSpec {
	spec, err := core.ParsePopulation("mix:n=200,weak=0.5,on=30,churn=15,slow=4,slowprob=0.3")
	if err != nil {
		panic(err)
	}
	spec.Seed = seed
	return spec
}

// TestPopTraceWindows pins the stateless trace's contract: windows end
// strictly after their query time, and every answer is a pure function of
// (spec seed, client, t) — no instance state, no query-order dependence.
func TestPopTraceWindows(t *testing.T) {
	a := sched.PopTrace{Spec: popTestSpec(5)}
	b := sched.PopTrace{Spec: popTestSpec(5)}
	type win struct {
		up    bool
		slow  float64
		until float64
	}
	type query struct {
		c   int
		t   float64
		got win
	}
	var forward []query
	for now := 0.0; now < 500; now += 7.3 {
		for c := 0; c < 20; c++ {
			up, slow, until := a.Window(c, now)
			if until <= now {
				t.Fatalf("window for (%d, %.1f) ends at %v, not strictly after", c, now, until)
			}
			if slow != 1 && slow != 4 {
				t.Fatalf("window slow factor %v, want 1 or 4", slow)
			}
			forward = append(forward, query{c, now, win{up, slow, until}})
		}
	}
	// Replay the exact same queries in reverse on a fresh instance.
	for i := len(forward) - 1; i >= 0; i-- {
		q := forward[i]
		up, slow, until := b.Window(q.c, q.t)
		if q.got.up != up || q.got.slow != slow || q.got.until != until {
			t.Fatalf("query order changed the answer for (%d, %.1f)", q.c, q.t)
		}
	}

	// Huge query times stay finite and well-formed (the Nextafter guard).
	for _, now := range []float64{86_400, 1e7, 1e12} {
		for c := 0; c < 5; c++ {
			if _, _, until := a.Window(c, now); until <= now || math.IsNaN(until) {
				t.Fatalf("window at t=%g ends at %v", now, until)
			}
		}
	}

	// No churn: always up, and with no slowdown configured, never-ending.
	calm := popTestSpec(6)
	calm.MeanOff, calm.SlowProb, calm.SlowFactor = 0, 0, 1
	ct := sched.PopTrace{Spec: calm}
	up, slow, until := ct.Window(3, 123)
	if !up || slow != 1 || !math.IsInf(until, 1) {
		t.Fatalf("churn-free window (%v, %v, %v), want always-on", up, slow, until)
	}
}

// TestOffsetTraceRemaps pins the shard view: local client c reads base
// client c+Offset's timeline exactly.
func TestOffsetTraceRemaps(t *testing.T) {
	base := sched.PopTrace{Spec: popTestSpec(8)}
	off := sched.OffsetTrace{Base: base, Offset: 40}
	for now := 0.0; now < 200; now += 11 {
		for c := 0; c < 10; c++ {
			u1, s1, e1 := off.Window(c, now)
			u2, s2, e2 := base.Window(c+40, now)
			if u1 != u2 || s1 != s2 || e1 != e2 {
				t.Fatalf("offset trace (%d, %.0f) != base (%d, %.0f)", c, now, c+40, now)
			}
		}
	}
}

func buildHierarchy(t *testing.T) *sched.Hierarchy {
	t.Helper()
	eds := make([]*sched.Edge, 2)
	for i := range eds {
		srv := buildServer(t, 6, 2, 50+int64(i))
		eng, err := sched.New(srv, testSim(t), &sched.RandomTrace{Seed: 9, MeanOn: 40, MeanOff: 10}, sched.Config{
			Policy: sched.SemiAsync, K: 2, Epochs: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		eds[i] = &sched.Edge{Srv: srv, Eng: eng}
	}
	h, err := sched.NewHierarchy(eds, testSim(t), sched.HierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHierarchyDeterministic runs the two-tier topology twice from the
// same seeds and requires identical global event logs, nested edge logs,
// and global weights — the hierarchy's replay property.
func TestHierarchyDeterministic(t *testing.T) {
	run := func() ([]string, []string, map[string]float64) {
		h := buildHierarchy(t)
		if err := h.Run(3, nil); err != nil {
			t.Fatal(err)
		}
		var edgeLogs []string
		for _, ed := range h.Edges() {
			edgeLogs = append(edgeLogs, ed.Eng.Log()...)
		}
		sums := map[string]float64{}
		for name, v := range h.Global() {
			sums[name] = v.Sum()
		}
		return h.Log(), edgeLogs, sums
	}
	log1, edges1, sums1 := run()
	log2, edges2, sums2 := run()
	if strings.Join(log1, "\n") != strings.Join(log2, "\n") {
		t.Fatal("global event logs differ between identical runs")
	}
	if strings.Join(edges1, "\n") != strings.Join(edges2, "\n") {
		t.Fatal("edge event logs differ between identical runs")
	}
	for name, v := range sums1 {
		if sums2[name] != v {
			t.Fatalf("global parameter %q differs between identical runs", name)
		}
	}
}

// TestHierarchyProgression checks the topology's mechanics over a short
// run: global commits arrive in virtual-time order, edge commits feed
// them, and a global merge down-syncs every edge before it next runs.
func TestHierarchyProgression(t *testing.T) {
	h := buildHierarchy(t)
	var times []float64
	if err := h.Run(3, func(gc sched.GlobalCommit) bool {
		times = append(times, gc.Time)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("ran %d global commits, want 3", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("global commits out of order: %v", times)
		}
	}
	if h.Version() != 3 || h.Clock() <= 0 {
		t.Fatalf("version=%d clock=%v after 3 commits", h.Version(), h.Clock())
	}
	log := strings.Join(h.Log(), "\n")
	for _, want := range []string{"edge-commit", "global-arrive", "global-commit", "down-sync"} {
		if !strings.Contains(log, want) {
			t.Fatalf("global log has no %q event:\n%s", want, log)
		}
	}
	for _, ed := range h.Edges() {
		if len(ed.Eng.Commits()) == 0 {
			t.Fatal("an edge never committed")
		}
	}
}

// TestLazyShardsCutOnlyWhenFlightsTrain runs a small lazy population
// through the engine under churn and counts the shard generator's calls:
// the engine prices flights from the spec's sample count, so a shard is
// cut only for a client one of whose flights trained, once (the LRU holds
// the whole population here), while sealed dropouts and capacity failures
// cut none.
func TestLazyShardsCutOnlyWhenFlightsTrain(t *testing.T) {
	spec, err := core.ParsePopulation("mix:n=60,weak=0.6,on=0.05,churn=0.05,samples=6")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 21
	pool, err := prune.BuildPool(testModelCfg(), prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := data.NewWriterSampler(data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32,
		Noise: 0.3, MaxShift: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	cuts := map[int]int{}
	gen := func(c int, seed int64) *data.Dataset {
		mu.Lock()
		cuts[c]++
		mu.Unlock()
		d, err := ws.Shard(seed, spec.Samples, 2, 0.15, 0.15)
		if err != nil {
			panic(err)
		}
		return d
	}
	// Weak devices at a fifth of the largest S-level member's size fit no
	// member of this pool, so every flight to one fails its capacity draw.
	dm := core.DefaultDeviceModel()
	dm.WeakFactor = 0.2
	pop, err := core.NewLazyPopulation(spec, pool, dm, gen, spec.N)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServerPopulation(core.Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3}, ClientsPerRound: 4,
		Train: core.TrainConfig{LocalEpochs: 1, BatchSize: 6, LR: 0.02, Momentum: 0.5},
		Seed:  32, Parallelism: 2,
	}, pop)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sched.New(srv, testSim(t), sched.PopTrace{Spec: spec}, sched.Config{Policy: sched.Sync, K: 4, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(8, nil); err != nil {
		t.Fatal(err)
	}
	eng.Log() // joins any flight still training
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("%d flights still open after the sync rounds", n)
	}
	trained := map[int]bool{}
	idle := map[int]bool{} // clients with a failed or sealed-dropout dispatch
	var failed, skipped int
	for _, st := range srv.Stats() {
		for _, d := range st.Dispatches {
			if d.Failed {
				failed++
				idle[d.Client] = true
			} else if d.TrainSkipped {
				skipped++
				idle[d.Client] = true
			} else {
				trained[d.Client] = true
			}
		}
	}
	if failed == 0 || skipped == 0 || len(trained) == 0 {
		t.Fatalf("the run needs failed, skipped and trained flights: failed=%d skipped=%d trained clients=%d",
			failed, skipped, len(trained))
	}
	untrained := 0
	for c := range idle {
		if !trained[c] {
			untrained++
		}
	}
	if untrained == 0 {
		t.Fatal("every failed or skipped client also trained; the run shows nothing")
	}
	// Sync rounds cancel no training, so every client that trained cut
	// its shard, and no other client did.
	for c, n := range cuts {
		if n != 1 || !trained[c] {
			t.Errorf("client %d: %d shard cuts, trained=%v; want one cut, for a client that trained", c, n, trained[c])
		}
	}
	for c := range trained {
		if cuts[c] == 0 {
			t.Errorf("client %d trained without cutting its shard", c)
		}
	}
}
