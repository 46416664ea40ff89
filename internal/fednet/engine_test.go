package fednet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/obs/analyze"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/testbed"
	"adaptivefl/internal/wire"
)

// TestEngineHTTPParityWithInProcess is the real-transport acceptance bar:
// driving the event engine with the HTTP trainer against loopback agents
// must reproduce the in-process codec path bit-for-bit — same global
// weights, same ledger (including the real encoded byte counts the cost
// model charged), same event log, same commits — for the same seed, trace
// and codec. Virtual time prices the schedule; the loopback transport
// supplies the actual payloads.
//
// The trace is a permanent straggler (no offline windows): a mid-flight
// dropout is the one place the two paths legitimately diverge in the
// ledger, because the in-process preflight plan skips a sealed dropout's
// training (TrainSkipped) while a real agent has already been asked.
func TestEngineHTTPParityWithInProcess(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	commits := 2

	codecs := []wire.Codec{wire.Q8{}}
	if !testing.Short() {
		// delta exercises the downlink-reference path, raw the bit-exact frame.
		codecs = append(codecs, wire.NewDeltaTopK(), wire.Raw{})
	}
	for _, codec := range codecs {
		t.Run(codec.Tag(), func(t *testing.T) {
			run := func(overHTTP bool) (map[string]float64, []core.RoundStats, []string, []sched.Commit) {
				clients := buildClients(t, 5) // fresh, bit-identical population per run
				cfg := core.Config{
					Model: mcfg, Pool: pcfg, ClientsPerRound: 3,
					Train: quickTrain(), Seed: 63,
				}
				var cluster *Cluster
				if overHTTP {
					var err error
					cluster, err = NewCluster(clients, mcfg, pcfg, quickTrain())
					if err != nil {
						t.Fatal(err)
					}
					defer cluster.Close()
					cluster.Trainer.Negotiate(codec)
					cfg.Trainer = cluster.Trainer
				} else {
					cfg.Codec = codec
				}
				srv, err := core.NewServer(cfg, clients)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := testbed.NewSim(testbed.Table5Platform())
				if err != nil {
					t.Fatal(err)
				}
				weak := func(c int) bool { return clients[c].Device.Class == core.Weak }
				trace := &sched.RandomTrace{
					Seed: 909, MeanOn: 1e9,
					SlowProb: 1, SlowFactor: 10, SlowOnly: weak,
				}
				eng, err := sched.New(srv, sim, trace, sched.Config{
					Policy: sched.DeadlineReuse, K: 3, Extra: 1, Epochs: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Run(commits, nil); err != nil {
					t.Fatal(err)
				}
				sums := map[string]float64{}
				for name, v := range srv.Global() {
					sums[name] = v.Sum()
				}
				return sums, srv.Stats(), eng.Log(), eng.Commits()
			}

			localSums, localStats, localLog, localCommits := run(false)
			httpSums, httpStats, httpLog, httpCommits := run(true)

			if len(localSums) != len(httpSums) {
				t.Fatalf("parameter sets differ: %d vs %d", len(localSums), len(httpSums))
			}
			for name, v := range localSums {
				if httpSums[name] != v {
					t.Fatalf("parameter %q differs between in-process and HTTP engine runs", name)
				}
			}
			if !reflect.DeepEqual(localLog, httpLog) {
				t.Fatalf("event logs differ:\nlocal: %s\nhttp:  %s",
					strings.Join(localLog, "\n       "), strings.Join(httpLog, "\n       "))
			}
			if !reflect.DeepEqual(localStats, httpStats) {
				t.Fatalf("ledgers differ:\nlocal %+v\nhttp  %+v", localStats, httpStats)
			}
			if !reflect.DeepEqual(localCommits, httpCommits) {
				t.Fatalf("commits differ:\nlocal %+v\nhttp  %+v", localCommits, httpCommits)
			}
			// The parity is only meaningful if real bytes crossed the wire
			// and were charged.
			for _, st := range httpStats {
				if st.SentBytes == 0 {
					t.Fatalf("round %d moved no wire bytes — the transport was not exercised", st.Round)
				}
			}
		})
	}
}

// TestNotModifiedDownlinkParity is the ETag contract's acceptance bar: a
// run whose downlinks revalidate (bodyless not-modified dispatches served
// from the agents' artifact caches) must be bit-identical — weights,
// ledger, event log, commits — to the same run forced to resend every
// full body (HTTPTrainer.FullDownlinks). Exercised across all four
// scheduling policies; the delta codec rides along in full mode to cover
// the uplink-reference interaction (both sides must diff against the
// artifact's decoded state whether or not its body crossed again).
func TestNotModifiedDownlinkParity(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}

	codecs := []wire.Codec{wire.Q8{}}
	if !testing.Short() {
		codecs = append(codecs, wire.NewDeltaTopK())
	}
	// The semiasync case pins the whole population in flight with a deep
	// aggregation buffer, so returning clients are re-dispatched before the
	// snapshot moves — the config that actually exercises revalidation.
	cases := []struct {
		policy          sched.Policy
		clients, buffer int
		commits         int
	}{
		{sched.Sync, 5, 0, 2},
		{sched.Deadline, 5, 0, 2},
		{sched.DeadlineReuse, 5, 0, 2},
		{sched.SemiAsync, 3, 3, 3},
	}
	revalidated := 0
	for _, codec := range codecs {
		for _, tc := range cases {
			t.Run(string(tc.policy)+"/"+codec.Tag(), func(t *testing.T) {
				run := func(fullDownlinks bool) (map[string]float64, []core.RoundStats, []string, []sched.Commit) {
					clients := buildClients(t, tc.clients)
					cluster, err := NewCluster(clients, mcfg, pcfg, quickTrain())
					if err != nil {
						t.Fatal(err)
					}
					defer cluster.Close()
					cluster.Trainer.Negotiate(codec)
					cluster.Trainer.FullDownlinks = fullDownlinks
					srv, err := core.NewServer(core.Config{
						Model: mcfg, Pool: pcfg, ClientsPerRound: 3,
						Train: quickTrain(), Seed: 63, Trainer: cluster.Trainer,
					}, clients)
					if err != nil {
						t.Fatal(err)
					}
					sim, err := testbed.NewSim(testbed.Table5Platform())
					if err != nil {
						t.Fatal(err)
					}
					weak := func(c int) bool { return clients[c].Device.Class == core.Weak }
					trace := &sched.RandomTrace{
						Seed: 909, MeanOn: 1e9,
						SlowProb: 1, SlowFactor: 10, SlowOnly: weak,
					}
					eng, err := sched.New(srv, sim, trace, sched.Config{
						Policy: tc.policy, K: 3, Extra: 1, Buffer: tc.buffer, Epochs: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := eng.Run(tc.commits, nil); err != nil {
						t.Fatal(err)
					}
					sums := map[string]float64{}
					for name, v := range srv.Global() {
						sums[name] = v.Sum()
					}
					return sums, srv.Stats(), eng.Log(), eng.Commits()
				}

				fullSums, fullStats, fullLog, fullCommits := run(true)
				revSums, revStats, revLog, revCommits := run(false)

				if !reflect.DeepEqual(fullSums, revSums) {
					t.Fatal("global weights differ between full-body and revalidating runs")
				}
				if !reflect.DeepEqual(fullLog, revLog) {
					t.Fatalf("event logs differ:\nfull: %s\nreval: %s",
						strings.Join(fullLog, "\n      "), strings.Join(revLog, "\n       "))
				}
				if !reflect.DeepEqual(fullStats, revStats) {
					t.Fatalf("ledgers differ:\nfull  %+v\nreval %+v", fullStats, revStats)
				}
				if !reflect.DeepEqual(fullCommits, revCommits) {
					t.Fatalf("commits differ:\nfull  %+v\nreval %+v", fullCommits, revCommits)
				}
				for _, st := range revStats {
					revalidated += st.DownNotModified
				}
			})
		}
	}
	// The parity is only meaningful if some dispatch actually rode the
	// not-modified path (the server's attribution is deterministic, so
	// this is stable across machines).
	if revalidated == 0 {
		t.Fatal("no configuration produced a not-modified dispatch — the revalidation path was not exercised")
	}
}

// TestClusterAgentRestartUnderEngine drives the re-negotiation path
// through the event engine: an agent that restarts mid-run with a smaller
// codec set must be re-negotiated transparently (415 → renegotiate →
// retry) and the run must keep committing.
func TestClusterAgentRestartUnderEngine(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 3)

	cluster, err := NewCluster(clients, mcfg, pcfg, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Trainer.Negotiate(wire.Q8{})

	// Swap agent 0 for a restarted instance that only speaks raw. The
	// cluster's server keeps its address, so the trainer's next dispatch
	// hits the new instance with the stale q8 negotiation.
	restarted, err := NewAgent(clients[0], mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	restarted.Codecs = []string{wire.TagRaw}
	cluster.servers[0].Handler = restarted

	srv, err := core.NewServer(core.Config{
		Model: mcfg, Pool: pcfg, ClientsPerRound: 2,
		Train: quickTrain(), Seed: 71, Trainer: cluster.Trainer,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sched.New(srv, sim, nil, sched.Config{Policy: sched.Sync, K: 2, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(2, nil); err != nil {
		t.Fatalf("engine run across agent restart: %v", err)
	}
	sawClient0 := false
	for _, st := range srv.Stats() {
		for _, d := range st.Dispatches {
			if d.Client != 0 {
				continue
			}
			sawClient0 = true
			if d.Codec != wire.TagRaw {
				t.Fatalf("client 0 dispatched with codec %q after restart, want raw", d.Codec)
			}
		}
	}
	if !sawClient0 {
		t.Skip("seed never selected client 0 — restart path not exercised")
	}
}

// TestClusterAgentRestartUnderSemiAsync runs the restart scenario of
// TestClusterAgentRestartUnderEngine under semiasync with churn, where
// flights launch under a lower bound named from the trainer's downlink
// size. The trainer negotiates f32 (preferred over q8); agent 1 restarts
// speaking only q8, so its dispatches re-negotiate onto an artifact
// smaller than the one negotiated at their launch, and agent 2 restarts
// speaking only raw. The run must finish with no bound error and a clean
// audit.
func TestClusterAgentRestartUnderSemiAsync(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 4)

	cluster, err := NewCluster(clients, mcfg, pcfg, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Trainer.Negotiate(wire.F32{}, wire.Q8{})
	for i, tags := range map[int][]string{1: {wire.TagQ8}, 2: {wire.TagRaw}} {
		restarted, err := NewAgent(clients[i], mcfg, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		restarted.Codecs = tags
		cluster.servers[i].Handler = restarted
	}

	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	srv, err := core.NewServer(core.Config{
		Model: mcfg, Pool: pcfg, ClientsPerRound: 2,
		Train: quickTrain(), Seed: 71, Trainer: cluster.Trainer,
		Observer: obs.NewObserver(nil, jw),
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		t.Fatal(err)
	}
	// Transfers dominate the flight time, so a bound sized from the
	// artifact negotiated at launch rather than the smallest the flight
	// can end on lands above the flight's event time.
	sim.TrainPassFactor /= 100
	trace := &sched.RandomTrace{Seed: 5, MeanOn: 0.015, MeanOff: 0.002, SlowProb: 0.5, SlowFactor: 4}
	eng, err := sched.New(srv, sim, trace, sched.Config{Policy: sched.SemiAsync, K: 4, Buffer: 2, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(8, nil); err != nil {
		t.Fatalf("semiasync run across agent restarts: %v", err)
	}
	eng.Log() // joins the flights still in the air before the cluster closes
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	want := map[int]string{0: wire.TagF32, 1: wire.TagQ8, 2: wire.TagRaw, 3: wire.TagF32}
	seen, dropped := map[int]bool{}, 0
	for _, st := range srv.Stats() {
		for _, d := range st.Dispatches {
			seen[d.Client] = true
			if d.Dropped {
				dropped++
			}
			if d.Codec != want[d.Client] {
				t.Fatalf("client %d dispatched with codec %q, want %q", d.Client, d.Codec, want[d.Client])
			}
		}
	}
	if !seen[1] {
		t.Fatal("client 1 was never dispatched: the re-negotiation onto a smaller artifact was not exercised")
	}
	if dropped == 0 {
		t.Fatal("no flight dropped: the churn was not exercised")
	}

	ledger := analyze.SummarizeStats(srv.Stats())
	ledger.Policy = string(sched.SemiAsync)
	ledger.HasDiscounts = true
	ledger.StalenessExp = eng.StalenessExp()
	ledger.DiscountSum = eng.DiscountSum()
	violations, err := analyze.Audit(bytes.NewReader(buf.Bytes()), &ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("audit violations:\n%s", strings.Join(violations, "\n"))
	}
}

// TestSetWallLogWhileFlightsTrain attaches the wall log between semiasync
// commits, while the flights launched by the last refill are still open
// (and typically still training over HTTP). Under -race this catches an
// unsynchronised attach; in any build every train round trip must be
// recorded on both sides or on neither.
func TestSetWallLogWhileFlightsTrain(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 4)
	cluster, err := NewCluster(clients, mcfg, pcfg, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	srv, err := core.NewServer(core.Config{
		Model: mcfg, Pool: pcfg, ClientsPerRound: 2,
		Train: quickTrain(), Seed: 71, Trainer: cluster.Trainer,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sched.New(srv, sim, nil, sched.Config{Policy: sched.SemiAsync, K: 4, Buffer: 2, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(2, nil); err != nil {
		t.Fatal(err)
	}
	if srv.InFlight() == 0 {
		t.Fatal("no flight open at the attach: the scenario was not exercised")
	}
	var buf bytes.Buffer
	wall := obs.NewJSONLWriter(&buf)
	cluster.SetWallLog(wall)
	if err := eng.Run(4, nil); err != nil {
		t.Fatal(err)
	}
	eng.Log() // joins the flights still in the air before the log is read
	if err := wall.Close(); err != nil {
		t.Fatal(err)
	}

	sides := map[int64]map[string]int{}
	err = analyze.ForEachWall(&buf, func(r obs.WallRecord) error {
		if r.Route == "train" {
			if sides[r.Flight] == nil {
				sides[r.Flight] = map[string]int{}
			}
			sides[r.Flight][r.Side]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sides) == 0 {
		t.Fatal("no train round trip recorded after the attach")
	}
	for id, n := range sides {
		if n["server"] != n["agent"] {
			t.Errorf("flight %d: %d server and %d agent train records", id, n["server"], n["agent"])
		}
	}
}
