package fednet

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
)

// swappableAgent lets a test "restart" an agent behind a stable URL.
type swappableAgent struct {
	mu    sync.Mutex
	agent *Agent
}

func (s *swappableAgent) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	a := s.agent
	s.mu.Unlock()
	a.ServeHTTP(w, r)
}

func (s *swappableAgent) swap(a *Agent) {
	s.mu.Lock()
	s.agent = a
	s.mu.Unlock()
}

// serverGlobal builds a fresh server solely for its initial global state.
func serverGlobal(t *testing.T, mcfg models.Config, pcfg prune.Config, clients []*core.Client) nn.State {
	t.Helper()
	srv, err := core.NewServer(core.Config{
		Model: mcfg, Pool: pcfg, ClientsPerRound: 1,
		Train: quickTrain(), Seed: 73,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Global()
}

// TestAgentRestartRenegotiates is the ROADMAP item end to end: an agent
// that restarts mid-experiment with a smaller codec set answers the stale
// negotiated codec with 415; the trainer must re-negotiate that client and
// retry, and the dispatch must succeed under the newly agreed codec.
func TestAgentRestartRenegotiates(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 1)
	clients[0].Device.Jitter = 0

	first, err := NewAgent(clients[0], mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Codecs = []string{wire.TagRaw, wire.TagQ8}
	holder := &swappableAgent{agent: first}
	ts := httptest.NewServer(holder)
	defer ts.Close()

	pool, err := prune.BuildPool(mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	trainer := NewHTTPTrainer([]string{ts.URL}, pool, quickTrain())
	trainer.Negotiate(wire.Q8{})
	if got := trainer.codecFor(0).Tag(); got != wire.TagQ8 {
		t.Fatalf("negotiated %q, want q8", got)
	}

	srv, err := core.NewServer(core.Config{
		Model: mcfg, Pool: pcfg, ClientsPerRound: 1,
		Train: quickTrain(), Seed: 71, Trainer: trainer,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Round(); err != nil {
		t.Fatal(err)
	}
	d := srv.Stats()[0].Dispatches[0]
	if d.Codec != wire.TagQ8 {
		t.Fatalf("round 1 ledger codec = %q, want q8", d.Codec)
	}

	// "Restart" the agent with a codec set that no longer includes q8.
	second, err := NewAgent(clients[0], mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	second.Codecs = []string{wire.TagRaw}
	if second.Instance() == first.Instance() {
		t.Fatal("restarted agent kept its instance ID")
	}
	holder.swap(second)

	if err := srv.Round(); err != nil {
		t.Fatalf("dispatch after restart: %v", err)
	}
	d = srv.Stats()[1].Dispatches[0]
	if d.Codec != wire.TagRaw {
		t.Fatalf("round 2 ledger codec = %q, want raw after re-negotiation", d.Codec)
	}
	if d.Failed {
		t.Fatal("dispatch after restart failed")
	}
	if got := trainer.codecFor(0).Tag(); got != wire.TagRaw {
		t.Fatalf("re-negotiated codec = %q, want raw", got)
	}
}

// TestRestartDetectedOnSuccessfulDispatch: a restarted agent that still
// accepts the negotiated codec answers normally, but the changed instance
// ID must refresh the trainer's per-client negotiation record.
func TestRestartDetectedOnSuccessfulDispatch(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 1)
	clients[0].Device.Jitter = 0

	first, err := NewAgent(clients[0], mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	holder := &swappableAgent{agent: first}
	ts := httptest.NewServer(holder)
	defer ts.Close()

	pool, err := prune.BuildPool(mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	trainer := NewHTTPTrainer([]string{ts.URL}, pool, quickTrain())
	trainer.Negotiate(wire.Q8{})
	if trainer.instances[0] != first.Instance() {
		t.Fatalf("negotiation recorded instance %q, want %q", trainer.instances[0], first.Instance())
	}

	second, err := NewAgent(clients[0], mcfg, pcfg) // accepts everything, like first
	if err != nil {
		t.Fatal(err)
	}
	holder.swap(second)

	st, err := pool.ExtractState(serverGlobal(t, mcfg, pcfg, clients), pool.Smallest())
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Train(core.TrainRequest{Client: 0, Sent: pool.Smallest(), State: st, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.CodecTag != wire.TagQ8 {
		t.Fatalf("dispatch used %q, want q8 (still accepted)", res.CodecTag)
	}
	if trainer.instances[0] != second.Instance() {
		t.Fatalf("instance record %q not refreshed to %q", trainer.instances[0], second.Instance())
	}
}
