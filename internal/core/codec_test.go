package core_test

import (
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
)

// runWithCodec executes a small synthetic federation with the given wire
// codec and returns the final full-model accuracy plus the byte totals
// from the round ledger (real encoded sizes, not estimates).
func runWithCodec(t *testing.T, codec wire.Codec, rounds int) (acc float64, sent, back int64) {
	t.Helper()
	pool := core.FixturePool(t)
	clients, test := core.FixtureCodecClients(t, 8, pool)
	srv, err := core.NewServer(core.Config{
		Model: core.FixtureModel(), Pool: prune.Config{P: 3},
		ClientsPerRound: 4,
		Train:           core.TrainConfig{LocalEpochs: 2, BatchSize: 12, LR: 0.12, Momentum: 0.5},
		Seed:            31, Codec: codec,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if err := syncEngine(t, srv).Run(rounds, nil); err != nil {
		t.Fatal(err)
	}
	for _, st := range srv.Stats() {
		if st.SentBytes == 0 {
			t.Fatalf("round %d recorded no encoded bytes", st.Round)
		}
	}
	sent, back = core.TotalWireBytes(srv.Stats())
	m, err := srv.GlobalModel()
	if err != nil {
		t.Fatal(err)
	}
	return eval.Accuracy(m, test, 40), sent, back
}

// TestQ8CutsBytesKeepsAccuracy is the wire subsystem's acceptance bar:
// on the same seed, int8 quantization must cut the bytes a round moves by
// ≥4× versus the raw float64 encoding while landing within 2 accuracy
// points of the raw baseline.
func TestQ8CutsBytesKeepsAccuracy(t *testing.T) {
	rounds := 14
	if testing.Short() {
		// The byte-ratio bound holds from round one; only the accuracy
		// comparison needs a full training run.
		rounds = 2
	}
	rawAcc, rawSent, rawBack := runWithCodec(t, wire.Raw{}, rounds)
	q8Acc, q8Sent, q8Back := runWithCodec(t, wire.Q8{}, rounds)

	rawTotal := rawSent + rawBack
	q8Total := q8Sent + q8Back
	if ratio := float64(rawTotal) / float64(q8Total); ratio < 4 {
		t.Fatalf("q8 moved %d bytes vs raw %d — %.2fx, want ≥4x", q8Total, rawTotal, ratio)
	}
	if testing.Short() {
		return
	}
	// One-sided: quantization must not cost more than 2 points. Landing
	// above the baseline is fine (int8 noise can act as regularisation).
	if q8Acc < rawAcc-0.02 {
		t.Fatalf("q8 accuracy %.4f vs raw %.4f — %.1f points below, want ≤2", q8Acc, rawAcc, (rawAcc-q8Acc)*100)
	}
}

// TestDeltaUplinkSparsity: with the delta codec, uploads (which diff
// against the dispatched reference) must come back much smaller than the
// dense dispatches going down.
func TestDeltaUplinkSparsity(t *testing.T) {
	_, sent, back := runWithCodec(t, wire.NewDeltaTopK(), 2)
	if back == 0 {
		t.Fatal("no upload bytes recorded")
	}
	// Downlink is dense f32 (no reference yet); uplink keeps ~10% of
	// coordinates. Sent and returned cover different model sizes, so just
	// require a clear asymmetry.
	if float64(back) > 0.5*float64(sent) {
		t.Fatalf("delta uplink %d bytes vs downlink %d — expected sparse uploads", back, sent)
	}
}
