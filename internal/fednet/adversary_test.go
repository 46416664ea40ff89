package fednet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
)

// TestRoundCompletesWithCorruptAgent: one agent of three answers every
// dispatch with a well-formed envelope around an undecodable payload. The
// round must complete (no error), ledger exactly one rejection, merge the
// honest two, and never trigger a re-negotiation.
func TestRoundCompletesWithCorruptAgent(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 3)
	for _, c := range clients {
		c.Device.Jitter = 0
	}
	var negotiations atomic.Int64
	urls := make([]string, len(clients))
	for i, c := range clients {
		if i == 1 {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet {
					negotiations.Add(1)
				}
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(TrainResponse{
					GotIndex: 0, State: []byte("garbage payload"), Samples: 10,
				})
			}))
			t.Cleanup(ts.Close)
			urls[i] = ts.URL
			continue
		}
		agent, err := NewAgent(c, mcfg, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(agent)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	pool, err := prune.BuildPool(mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Model: mcfg, Pool: pcfg, ClientsPerRound: 3,
		Train: quickTrain(), Seed: 63,
		Trainer: NewHTTPTrainer(urls, pool, quickTrain()),
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := syncEngine(t, srv, 3).Run(1, nil); err != nil {
		t.Fatalf("round with a corrupt agent must complete: %v", err)
	}
	st := srv.Stats()[0]
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want exactly the corrupt agent's dispatch", st.Rejected)
	}
	rejected, merged := 0, 0
	for _, d := range st.Dispatches {
		switch {
		case d.Rejected:
			rejected++
			if d.Failed {
				t.Fatal("rejected dispatch also flagged Failed")
			}
			if d.GotBytes == 0 {
				t.Fatal("rejected dispatch lost its uplink byte count")
			}
		case !d.Failed && !d.Dropped:
			merged++
		}
	}
	if rejected != 1 || merged != 2 {
		t.Fatalf("got %d rejected / %d merged dispatches, want 1 / 2", rejected, merged)
	}
	if n := negotiations.Load(); n != 0 {
		t.Fatalf("corrupt payload triggered %d re-negotiations, want 0", n)
	}
}

// TestHTTPAdversaryParityWithInProcess: with the same (seed, spec) pair,
// agents acting out a stateless behavior over HTTP must yield the same
// global model as the in-process injection — the attacker set and its
// tampering are bit-reproducible across transports.
func TestHTTPAdversaryParityWithInProcess(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	adv, err := core.ParseAdversary("signflip:frac=0.6")
	if err != nil {
		t.Fatal(err)
	}
	adv.Seed = 17
	attackers := 0
	for c := 0; c < 5; c++ {
		if adv.BehaviorOf(c) != core.Honest {
			attackers++
		}
	}
	if attackers == 0 {
		t.Fatal("spec drew no attackers — the parity would be vacuous")
	}

	run := func(overHTTP bool) map[string]float64 {
		clients := buildClients(t, 5)
		for _, c := range clients {
			c.Device.Jitter = 0
		}
		cfg := core.Config{
			Model: mcfg, Pool: pcfg, ClientsPerRound: 3,
			Train: quickTrain(), Seed: 63,
		}
		if overHTTP {
			urls := make([]string, len(clients))
			for i, c := range clients {
				agent, err := NewAgent(c, mcfg, pcfg)
				if err != nil {
					t.Fatal(err)
				}
				agent.Adversary = adv
				ts := httptest.NewServer(agent)
				t.Cleanup(ts.Close)
				urls[i] = ts.URL
			}
			pool, err := prune.BuildPool(mcfg, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Trainer = NewHTTPTrainer(urls, pool, quickTrain())
		} else {
			cfg.Adversary = adv
		}
		srv, err := core.NewServer(cfg, clients)
		if err != nil {
			t.Fatal(err)
		}
		if err := syncEngine(t, srv, 3).Run(2, nil); err != nil {
			t.Fatal(err)
		}
		sums := map[string]float64{}
		for name, v := range srv.Global() {
			sums[name] = v.Sum()
		}
		return sums
	}

	local, remote := run(false), run(true)
	for name, v := range local {
		if remote[name] != v {
			t.Fatalf("parameter %q differs between in-process and HTTP adversarial runs", name)
		}
	}
}

// TestAgentStaleReplay: a stale-replay agent's second upload re-sends its
// first trained state byte-for-byte, even though the fresh training (a
// different seed) would have produced different weights.
func TestAgentStaleReplay(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 1)
	clients[0].Device.Base = 1 << 40
	clients[0].Device.Jitter = 0
	agent, err := NewAgent(clients[0], mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := core.ParseAdversary("stale-replay:frac=1")
	if err != nil {
		t.Fatal(err)
	}
	adv.Seed = 5
	agent.Adversary = adv
	if adv.BehaviorOf(0) != core.StaleReplay {
		t.Fatal("frac=1 spec must make client 0 a stale-replayer")
	}
	pool := agent.Pool
	global := buildGlobal(t, mcfg)
	st, err := pool.ExtractState(global, pool.Largest())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.Raw{}.Encode(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := TrainRequest{SentIndex: pool.Largest().Index, Codec: wire.TagRaw,
		State: enc, Train: quickTrain(), Seed: 1}
	first, err := agent.Train(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Seed = 2 // fresh training would differ
	second, err := agent.Train(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.State, second.State) {
		t.Fatal("stale-replay second upload should replay the first trained state")
	}
	req.Seed = 3
	third, err := agent.Train(req)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(second.State, third.State) {
		t.Fatal("third upload should replay the second training, not the first")
	}
}
