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
