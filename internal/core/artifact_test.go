package core

import (
	"testing"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
)

// TestEncodeOncePerCommit pins the tentpole invariant of the encode-once
// dispatch path: per commit, the server runs exactly one codec encode per
// distinct pool member it dispatched — however many clients are in the
// cohort — and every dispatch is attributed to exactly one serving path.
// Doubling the cohort must not change the encodes a round costs.
func TestEncodeOncePerCommit(t *testing.T) {
	for _, cohort := range []int{4, 8} {
		pool := testPool(t)
		clients, _ := codecTestClients(t, 8, pool)
		srv, err := NewServer(Config{
			Model: testModelCfg(), Pool: prune.Config{P: 3},
			ClientsPerRound: cohort,
			Train:           TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.1, Momentum: 0.5},
			Seed:            31, Codec: wire.Q8{},
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		var prev int64
		if err := srv.Run(3, func(round int) bool {
			stats := srv.Stats()
			st := stats[len(stats)-1]
			members := map[int]bool{}
			for _, d := range st.Dispatches {
				members[d.Sent.Index] = true
			}
			if got := srv.Artifacts().Encodes() - prev; got != int64(len(members)) {
				t.Fatalf("cohort %d round %d: %d encodes for %d distinct members dispatched",
					cohort, round, got, len(members))
			}
			prev = srv.Artifacts().Encodes()
			if st.DownEncodedOnce != len(members) {
				t.Fatalf("cohort %d round %d: DownEncodedOnce = %d, want %d",
					cohort, round, st.DownEncodedOnce, len(members))
			}
			if n := st.DownEncodedOnce + st.DownReserved + st.DownNotModified; n != len(st.Dispatches) {
				t.Fatalf("cohort %d round %d: serving-path census %d != %d dispatches",
					cohort, round, n, len(st.Dispatches))
			}
			// Every dispatch beyond the first per member rode the store.
			if want := len(st.Dispatches) - len(members); st.DownReserved != want {
				t.Fatalf("cohort %d round %d: DownReserved = %d, want %d",
					cohort, round, st.DownReserved, want)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}

		// A second codec against the same snapshot costs exactly one more
		// encode per member — W members × C codecs, never W × C × cohort.
		c2 := wire.F32{}
		snap := srv.SnapshotHash()
		before := srv.Artifacts().Encodes()
		for pass := 0; pass < 2; pass++ { // second pass must be all hits
			for _, sub := range pool.Members {
				sub := sub
				key := wire.ArtifactKey{Snapshot: snap, Member: sub.Index, Codec: c2.Tag()}
				if _, err := srv.Artifacts().Get(key, c2, func() (nn.State, error) {
					return pool.ExtractState(srv.Global(), sub)
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := srv.Artifacts().Encodes() - before; got != int64(len(pool.Members)) {
			t.Fatalf("second codec cost %d encodes, want %d", got, len(pool.Members))
		}
	}
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
