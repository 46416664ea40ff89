package sched_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/wire"
)

// goldenTrainer stands in for a networked device: it owns the pruning
// decision, so Server.Plan returns nil and the engine joins every flight
// at launch. Its outcome is a pure function of the request's seed: a
// capacity failure, a rejected upload, or the sent state scaled, with
// payload sizes that vary per dispatch so the upload pricing reads them.
type goldenTrainer struct{}

func (goldenTrainer) Train(req core.TrainRequest) (core.TrainResult, error) {
	r := uint64(req.Seed)
	sent := req.Sent.Size * 4
	switch r % 5 {
	case 0:
		return core.TrainResult{Failed: true, SentBytes: sent, CodecTag: "golden"}, nil
	case 1:
		return core.TrainResult{Got: req.Sent, Rejected: true, SentBytes: sent,
			GotBytes: sent / 3, CodecTag: "golden"}, nil
	}
	st := req.State.Clone()
	for _, v := range st {
		v.Scale(1 + float64(r%7)/100)
	}
	return core.TrainResult{State: st, Samples: 1 + int(r%3), Got: req.Sent,
		SentBytes: sent, GotBytes: sent / int64(1+r%4), CodecTag: "golden"}, nil
}

// goldenEngineServer is goldenServer (six clients, 16×16 inputs, one
// batch each) with a final say over the server config.
func goldenEngineServer(t *testing.T, mutate func(*core.Config)) *core.Server {
	t.Helper()
	const n = 6
	pool, err := prune.BuildPool(testModelCfg(), prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	train, _ := data.Generate(data.SynthConfig{Name: "g", Classes: 4, Channels: 3, Size: 16,
		Train: n * 12, Test: 20, Noise: 0.3, MaxShift: 1, Seed: 11})
	rng := rand.New(rand.NewSource(5))
	parts := data.PartitionIID(rng, train.Len(), n)
	devices := core.NewPopulation(rng, n, [3]float64{4, 3, 3}, pool, core.DefaultDeviceModel())
	clients := make([]*core.Client, n)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}
	cfg := core.Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3}, ClientsPerRound: 3,
		Train: core.TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.02, Momentum: 0.5},
		Seed:  37, Parallelism: 2,
	}
	mutate(&cfg)
	srv, err := core.NewServer(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// ledgerDigest digests the ledger field by field, by name, so a field
// added to or retired from core.Dispatch or core.RoundStats leaves it
// alone.
func ledgerDigest(stats []core.RoundStats) uint64 {
	var lines []string
	for _, st := range stats {
		lines = append(lines, fmt.Sprintf("round=%d sentP=%d retP=%d sentB=%d retB=%d skipped=%d reused=%d rejected=%d clipped=%d down=%d/%d/%d",
			st.Round, st.SentParams, st.ReturnedParams, st.SentBytes, st.ReturnedBytes, st.TrainSkipped,
			st.LateReused, st.Rejected, st.Clipped, st.DownEncodedOnce, st.DownReserved, st.DownNotModified))
		for _, d := range st.Dispatches {
			lines = append(lines, fmt.Sprintf(" c%d %s>%s failed=%t late=%t reused=%t dropped=%t rejected=%t clipped=%t skipped=%t codec=%q down=%q bytes=%d/%d",
				d.Client, d.Sent.Name(), d.Got.Name(), d.Failed, d.Late, d.LateReused, d.Dropped, d.Rejected,
				d.Clipped, d.TrainSkipped, d.Codec, d.DownPath, d.SentBytes, d.GotBytes))
		}
	}
	return digest(lines)
}

// TestGoldenEngine pins twelve commits of the flat engine for every policy
// and three trainers: in-process without a codec, in-process through q8,
// and goldenTrainer, whose flights cannot be planned. A churny trace with
// stragglers and a per-round cap on the deadline policies drive drops,
// late uploads, banked reuse and capped closes. Per cell it pins digests
// of the event log and the ledger, the global weights hash, Clock and
// DiscountSum. The constants were recorded before the engine's scheduler
// core was folded into one deadline loop, one queue, one settle path and
// one pricing walk, and must never be edited. amd64 only, as
// TestGoldenRoundHashes.
func TestGoldenEngine(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded for amd64's unfused multiply-add")
	}
	trainers := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"inproc", func(*core.Config) {}},
		{"q8", func(c *core.Config) { c.Codec = wire.Q8{} }},
		{"remote", func(c *core.Config) { c.Trainer = goldenTrainer{} }},
	}
	want := map[string]string{
		"sync/inproc":           "log=0b4249b6a5147cf2 ledger=f8824d575cbdb9a6 global=85795c052d504662 clock=0.9171834992000002 discount=34",
		"sync/q8":               "log=97b6f6a10131f058 ledger=d02ac9fb579c0be1 global=ad7b6920777fcd82 clock=0.9325587888 discount=35",
		"sync/remote":           "log=f39e58941dc6320c ledger=7db839924028d4e6 global=2758a198e497a8dc clock=1.3620158225369747 discount=20",
		"deadline/inproc":       "log=b98fa10a4155933f ledger=ca9b3542cfcedc27 global=9d1a0b227ea0463f clock=0.42595366399999995 discount=34",
		"deadline/q8":           "log=b9e8802b0bf8e168 ledger=414eef1f217240ae global=e5b065a1f2cdc864 clock=0.3707984751999999 discount=34",
		"deadline/remote":       "log=3ee5c77c2ed22ab0 ledger=9b0403d47634bbc0 global=972a7dc554fab865 clock=0.41009311519999997 discount=14",
		"deadline-reuse/inproc": "log=7c4c2b1a71a6e34c ledger=aa21d9251e455e92 global=fb46a4f477eff179 clock=0.42595366399999995 discount=38.646264369941974",
		"deadline-reuse/q8":     "log=d52bf69d9937716b ledger=d08e23ad8703c79f global=2517238f68fed121 clock=0.3707978752 discount=37.938777427062675",
		"deadline-reuse/remote": "log=d027b494bba493cc ledger=07a9022fe517ece5 global=a13013ad5002ad30 clock=0.41009311519999997 discount=15.707106781186548",
		"semiasync/inproc":      "log=bdab325c0289ec93 ledger=2d2bf50d06d23c8e global=0569a5e973d52f50 clock=0.3103608108799999 discount=20.482747501432698",
		"semiasync/q8":          "log=d8623ecb5869f41b ledger=aca48a100c7bfc9a global=1c11a8ce02f37535 clock=0.2607526137092512 discount=20.639203752908866",
		"semiasync/remote":      "log=15c0d20e197867ce ledger=3cc5286fadc80d85 global=864af3c586f57d79 clock=0.5771207616000001 discount=20.681418114181962",
	}
	var all []string
	for _, policy := range []sched.Policy{sched.Sync, sched.Deadline, sched.DeadlineReuse, sched.SemiAsync} {
		for _, tr := range trainers {
			name := string(policy) + "/" + tr.name
			srv := goldenEngineServer(t, tr.mutate)
			trace := &sched.RandomTrace{Seed: 96, MeanOn: 0.5, MeanOff: 0.05, SlowProb: 0.3, SlowFactor: 4}
			cfg := sched.Config{Policy: policy, K: 3, Extra: 2, Buffer: 2, Epochs: 1}
			if policy == sched.Deadline || policy == sched.DeadlineReuse {
				cfg.Deadline = 0.05
			}
			eng, err := sched.New(srv, testSim(t), trace, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(12, nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			all = append(all, eng.Log()...)
			got := fmt.Sprintf("log=%016x ledger=%016x global=%016x clock=%v discount=%v",
				digest(eng.Log()), ledgerDigest(srv.Stats()), nn.HashState(srv.Global()),
				eng.Clock(), eng.DiscountSum())
			if got != want[name] {
				t.Errorf("%s:\n got %s\nwant %s", name, got, want[name])
			}
		}
	}
	// The cells must reach every path the engine can take an event down.
	joined := strings.Join(all, "\n")
	for _, mark := range []string{"will-drop", " drop ", "deadline round=", "late-arrive", "late-drop", "late-reuse", "late-failed", "late-rejected", "rejected="} {
		if !strings.Contains(joined, mark) {
			t.Errorf("no cell logged %q", mark)
		}
	}
}
