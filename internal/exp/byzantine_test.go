package exp

import (
	"strings"
	"testing"

	"adaptivefl/internal/models"
)

// byzScale is the byzantine experiment's CI fidelity: small enough for a
// smoke run, large enough for the attack to separate the policies. K=7
// of 15 keeps the per-round attacker fraction close to the population's
// 30% — at K=5 the sampling variance lets single rounds run 60%
// adversarial, past what any aggregation rule can absorb.
func byzScale() Scale {
	return Scale{
		Name: "byz", Clients: 15, K: 7, Rounds: 10, EvalEvery: 2,
		SamplesPerClient: 20, TestSamples: 150, WidthScale: 0.10,
		LocalEpochs: 1, BatchSize: 10, LR: 0.10, Momentum: 0.5,
		Parallelism: 7, Seed: 1,
	}
}

// TestByzantineSeparation is the PR's acceptance experiment: under a 30%
// sign-flip/scale attack, at least one robust policy must stay within 3
// accuracy points of the attack-free baseline while the plain weighted
// mean (FedAvg) degrades by more than 10 points — and every row must be
// bit-deterministic across same-seed runs.
func TestByzantineSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("byzantine separation needs full training rounds")
	}
	sc := byzScale()
	cell := Cell{"cifar10", models.ResNet18, IID}
	rows, err := ByzantineRows(cell, sc)
	if err != nil {
		t.Fatal(err)
	}
	base, fedavg := rows[0], rows[1]
	t.Logf("attack-free baseline: %.2f%%", base.Full*100)
	for _, r := range rows[1:] {
		t.Logf("%-18s  full=%.2f%%  Δ=%+.2f  rejected=%d clipped=%d hash=%016x",
			r.Label, r.Full*100, (r.Full-base.Full)*100, r.Rejected, r.Clipped, r.Hash)
	}
	if drop := (base.Full - fedavg.Full) * 100; drop <= 10 {
		t.Errorf("FedAvg under attack lost only %.2f points (want > 10) — the attack lacks teeth", drop)
	}
	bestGap, bestLabel := 1e9, ""
	for _, r := range rows[2:] {
		if gap := (base.Full - r.Full) * 100; gap < bestGap {
			bestGap, bestLabel = gap, r.Label
		}
	}
	if bestGap > 3 {
		t.Errorf("best robust policy (%s) is %.2f points under the baseline (want <= 3)", bestLabel, bestGap)
	}
	t.Logf("best robust policy: %s (%.2f points under baseline)", bestLabel, bestGap)

	// The clip stage must actually ledger clips under attack (scale-attack
	// deltas are enormous), and no honest-path row may reject anything:
	// sign-flip and scale uploads are finite, so the hardened decode path
	// has nothing to refuse here.
	clip := rows[4]
	if clip.Clipped == 0 {
		t.Error("clip+trim row ledgered no clips under a scale attack")
	}

	// Bit-determinism: re-running a row at the same seed must reproduce
	// the final weights hash exactly.
	again := rows[3]
	if err := runByzantineRow(cell, sc, &again); err != nil {
		t.Fatal(err)
	}
	if again.Hash != rows[3].Hash {
		t.Errorf("same-seed re-run hash %016x != %016x", again.Hash, rows[3].Hash)
	}
	if again.Rejected != rows[3].Rejected || again.Clipped != rows[3].Clipped {
		t.Errorf("same-seed re-run ledger (%d,%d) != (%d,%d)",
			again.Rejected, again.Clipped, rows[3].Rejected, rows[3].Clipped)
	}
}

// TestTableByzantineOutput smoke-checks the printed table at a tiny scale
// — format only, no separation claims.
func TestTableByzantineOutput(t *testing.T) {
	sc := byzScale()
	sc.Rounds, sc.EvalEvery, sc.Clients, sc.K = 2, 1, 8, 3
	sc.Parallelism = 3
	var sb strings.Builder
	if err := TableByzantine(&sb, sc); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Byzantine resilience", DefaultByzantineAttack,
		"mean (attack-free)", "mean (FedAvg)", "trimmed mean", "multi-Krum", "clip+trim",
		"weights-hash",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("TableByzantine output missing %q:\n%s", want, out)
		}
	}
}

// TestByzantineRowScheduled pins that a scheduled AdaptiveFL runner
// reports its ledger and weights like the synchronous one: under the sync
// policy the engine reproduces the legacy round bit for bit
// (TestSyncPolicyMatchesLegacyRound), so the rows must be equal, with a
// non-zero hash.
func TestByzantineRowScheduled(t *testing.T) {
	cell := Cell{"cifar10", models.ResNet18, IID}
	var rows [2]ByzantineRow
	for i, policy := range []string{"", "sync"} {
		sc := tinyScale()
		sc.Sched = policy
		rows[i] = ByzantineRow{Agg: "clip:tau=0.5+trim:frac=0.2", Adversary: "scale:frac=0.5,k=10"}
		if err := runByzantineRow(cell, sc, &rows[i]); err != nil {
			t.Fatalf("sched %q: %v", policy, err)
		}
	}
	if rows[0].Hash == 0 {
		t.Fatal("legacy row reports hash 0")
	}
	if rows[0] != rows[1] {
		t.Fatalf("rows differ:\nlegacy %+v\nsync   %+v", rows[0], rows[1])
	}
}
