package exp

import (
	"fmt"
	"runtime"
	"testing"

	"adaptivefl/internal/core"
)

// TestGoldenPopSimHierarchy pins one two-edge RunPopSim cell (K=2 split
// to one in-flight dispatch per edge, the million-client bench's shape):
// the final weights hash, the edge-commit count, the sparse RL rows, the
// lazy population's live/made census and the ledger summary. Recorded
// while the hierarchy ran one edge step at a time; must never be edited.
// amd64 only, as TestGoldenRoundHashes.
func TestGoldenPopSimHierarchy(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded for amd64's unfused multiply-add")
	}
	spec, err := core.ParsePopulation("mix:n=300,weak=0.5,churn=300,samples=8")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPopSim(nil, spec, popTestScale(), 2, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("weights=%016x commits=%d edge-commits=%d rl-rows=%d live=%d made=%d",
		res.WeightsHash, res.Commits, res.EdgeCommits, res.RLRows, res.Live, res.TotalMade)
	if want := "weights=ae7c94268f5052dd commits=23 edge-commits=26 rl-rows=196 live=196 made=196"; got != want {
		t.Errorf("run:\n got %s\nwant %s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", *res.Ledger), "{Policy:semiasync Commits:26 Dispatches:225 Merged:26 Late:0 LateReused:0 Dropped:199 Failed:0 TrainSkipped:199 "+
		"Rejected:0 Clipped:0 DownEncodedOnce:0 DownReserved:0 DownNotModified:0 SentBytes:0 ReturnedBytes:0 "+
		"SentParams:2528588 ReturnedParams:164504 HasDiscounts:true StalenessExp:0.5 DiscountSum:26 GlobalCommits:23 "+
		"GlobalStalenessExp:0.5 GlobalDiscountSum:12.655583592916015 HasLRU:false LRULive:0 LRUMade:0}"; got != want {
		t.Errorf("ledger:\n got %s\nwant %s", got, want)
	}
}

// TestGoldenPopSimAdversary pins Scale.Adversary reaching RunPopSim, flat
// and two-tier: a 25 % scale-attack sub-population on a 2000-client churny
// fleet. The hashes were recorded while the population spec still named
// the attack itself (adv=scale,advfrac=0.25,advk=4); the adversary seed is
// still the population seed, plus i on edge i. The honest run pins that
// the attack moves the weights. amd64 only, as TestGoldenRoundHashes.
func TestGoldenPopSimAdversary(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded for amd64's unfused multiply-add")
	}
	spec, err := core.ParsePopulation("mix:n=2000,weak=0.5,churn=30")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		adversary string
		edges     int
		want      uint64
	}{
		{"", 1, 0xc344c873feaead46},
		{"scale:frac=0.25,k=4", 1, 0x86fe5582642431af},
		{"scale:frac=0.25,k=4", 2, 0xa0e01efb4ff145a4},
	} {
		sc := QuickScale()
		sc.Sched = "semiasync"
		sc.Adversary = c.adversary
		res, err := RunPopSim(nil, spec, sc, c.edges, 3000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.WeightsHash != c.want {
			t.Errorf("adversary %q, %d edges: weights %016x, want %016x", c.adversary, c.edges, res.WeightsHash, c.want)
		}
	}
}
