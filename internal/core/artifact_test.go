package core

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"adaptivefl/internal/data"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
)

// codecTestClients mirrors testClients with a much larger test split, so
// a 2-point accuracy comparison is not drowned by evaluation noise (at 80
// test samples one flipped prediction already moves 1.25 points).
func codecTestClients(t *testing.T, n int, pool *prune.Pool) ([]*Client, *data.Dataset) {
	t.Helper()
	cfg := data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32,
		Train: n * 24, Test: 400, Noise: 0.3, MaxShift: 1, Seed: 11}
	train, test := data.Generate(cfg)
	rng := rand.New(rand.NewSource(5))
	parts := data.PartitionIID(rng, train.Len(), n)
	devices := NewPopulation(rng, n, [3]float64{4, 3, 3}, pool, DefaultDeviceModel())
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = &Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}
	return clients, test
}

// TestNotModifiedOnUnchangedSnapshot: when the global model does not move
// between dispatches (an empty commit), re-dispatching the same member to
// the same client is attributed not-modified — the ETag revalidation path.
func TestNotModifiedOnUnchangedSnapshot(t *testing.T) {
	pool := testPool(t)
	clients, _ := codecTestClients(t, 4, pool)
	srv, err := NewServer(Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3},
		ClientsPerRound: 4,
		Train:           TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.1, Momentum: 0.5},
		Seed:            31, Codec: wire.Q8{},
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	// Drive dispatches by hand at a pinned snapshot: two flights for the
	// same (client, member) slot without an intervening commit.
	slots := srv.PlanSlots(4, nil)
	trainer, err := srv.RoundTrainer(slots)
	if err != nil {
		t.Fatal(err)
	}
	encodesAfterWarm := srv.Artifacts().Encodes()
	var st RoundStats
	for pass := 0; pass < 2; pass++ {
		for _, sl := range slots {
			f := srv.OpenFlight(sl)
			if _, err := srv.Plan(trainer, f); err != nil {
				t.Fatal(err)
			}
			srv.Execute(trainer, f)
			f.Wait()
			srv.Release(f)
			if err := f.Err(); err != nil {
				t.Fatal(err)
			}
			d, _ := srv.Record(f, Merged)
			st.Add(d)
		}
	}
	if st.DownNotModified != len(slots) {
		t.Fatalf("DownNotModified = %d, want %d (every second-pass dispatch)",
			st.DownNotModified, len(slots))
	}
	if srv.Artifacts().Encodes() != encodesAfterWarm {
		t.Fatalf("re-dispatch at a pinned snapshot re-encoded: %d -> %d",
			encodesAfterWarm, srv.Artifacts().Encodes())
	}
}

// refusingCodec is Q8 except that it refuses to encode states of the
// listed parameter counts.
type refusingCodec struct {
	wire.Q8
	refuse map[int]bool
}

func (c refusingCodec) Encode(st, ref nn.State) ([]byte, error) {
	if c.refuse[st.NumParams()] {
		return nil, errors.New("refused")
	}
	return c.Q8.Encode(st, ref)
}

// TestRoundTrainerWarmsSideBySide drives RoundTrainer's concurrent warm
// (run it under -race): slots that repeat members still cost one encode
// per distinct member and one store hit per repeat, no warm goroutine
// outlives the call, and with several members failing the error is the
// first failing slot's, every time.
func TestRoundTrainerWarmsSideBySide(t *testing.T) {
	pool := testPool(t)
	clients, _ := codecTestClients(t, 4, pool)
	newServer := func(c wire.Codec) *Server {
		srv, err := NewServer(Config{
			Model: testModelCfg(), Pool: prune.Config{P: 3},
			ClientsPerRound: 4, Parallelism: 4,
			Train: TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.1, Momentum: 0.5},
			Seed:  31, Codec: c,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	m := pool.Members
	var slots []Slot
	for i, idx := range []int{3, 0, 3, 5, 1, 0, 6, 3, 1} {
		slots = append(slots, Slot{Sent: m[idx], Client: i % len(clients)})
	}
	before := runtime.NumGoroutine()

	srv := newServer(wire.Q8{})
	if _, err := srv.RoundTrainer(slots); err != nil {
		t.Fatal(err)
	}
	if got := srv.Artifacts().Encodes(); got != 5 {
		t.Fatalf("store_encodes = %d, want 5 (distinct members)", got)
	}
	if got := srv.Artifacts().Hits(); got != int64(len(slots)-5) {
		t.Fatalf("store_hits = %d, want %d (repeated slots)", got, len(slots)-5)
	}

	// Members 6, 5 and 1 fail; slot 3 (member 5) is the first failing
	// slot, slot 8 (member 1) the last.
	refuse := map[int]bool{}
	for _, idx := range []int{6, 5, 1} {
		st, err := pool.ExtractState(srv.Global(), m[idx])
		if err != nil {
			t.Fatal(err)
		}
		refuse[st.NumParams()] = true
	}
	want := "dispatch " + m[5].Name() + ": refused"
	bad := newServer(refusingCodec{refuse: refuse})
	for i := 0; i < 20; i++ {
		if _, err := bad.RoundTrainer(slots); err == nil || err.Error() != want {
			t.Fatalf("call %d: error %v, want %q", i, err, want)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after the warms (started with %d)", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
