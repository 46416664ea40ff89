package sched_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
)

// digest is FNV-64a over lines joined by newlines.
func digest(lines []string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(lines, "\n")))
	return h.Sum64()
}

// goldenServer is buildServer at a quarter of its training cost: 16×16
// inputs and one 12-sample batch per client.
func goldenServer(t *testing.T, seed int64) *core.Server {
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
	srv, err := core.NewServer(core.Config{
		Model: testModelCfg(), Pool: prune.Config{P: 3}, ClientsPerRound: 2,
		Train: core.TrainConfig{LocalEpochs: 1, BatchSize: 12, LR: 0.02, Momentum: 0.5},
		Seed:  seed, Parallelism: 2,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// goldenHierarchy builds a two-tier topology of `edges` edges (six
// clients, K=2 each, churny per-edge traces with stragglers) under the
// given edge policy and global buffer.
func goldenHierarchy(t *testing.T, policy sched.Policy, edges, buffer int) *sched.Hierarchy {
	t.Helper()
	eds := make([]*sched.Edge, edges)
	for i := range eds {
		srv := goldenServer(t, 50+int64(i))
		trace := &sched.RandomTrace{Seed: 90 + int64(i), MeanOn: 0.3, MeanOff: 0.05, SlowProb: 0.5, SlowFactor: 10}
		eng, err := sched.New(srv, testSim(t), trace, sched.Config{Policy: policy, K: 2, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		eds[i] = &sched.Edge{Srv: srv, Eng: eng}
	}
	h, err := sched.NewHierarchy(eds, testSim(t), sched.HierConfig{GlobalBuffer: buffer})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestGoldenHierarchy pins four global merges of the two-tier topology
// for every edge policy, two and three edges, and a global buffer of one
// and two: the final global hash; per edge a digest of its event log, of
// its ledger and its own global hash; the GlobalCommit sequence with each
// edge's log length at every callback (so a step boundary that moves
// shows); and a digest of the sorted global-tier log. The constants were
// recorded while the hierarchy still ran one edge step at a time, and
// must never be edited: any schedule that overlaps edge executions has
// to reproduce that serial composition exactly. The ledger digests use
// TestGoldenEngine's named-field ledgerDigest, so retiring a ledger field
// leaves them alone; they were re-recorded for that switch on unchanged
// engine code. amd64 only, as TestGoldenRoundHashes.
func TestGoldenHierarchy(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded for amd64's unfused multiply-add")
	}
	cells := []struct {
		policy        sched.Policy
		edges, buffer int
		final         uint64
		edge          []string // per edge: log, ledger and global digests
		commits       string
		sortedLog     uint64
	}{
		{sched.Sync, 2, 1, 0xff09a4ae18b0feb5,
			[]string{"log=e86e4c13e05cd127 stats=5b8b52e537297b9d global=8d9191996c7f7bff", "log=d2c127a8c02757fb stats=a9b980a2f680ab07 global=4b575b56ca5ef586"},
			"v1@0.098113+1[5,10] v2@0.303471+1[15,20] v3@0.465096+1[20,20] v4@0.605799+1[25,20]",
			0x58ad6acfe2313d12},
		{sched.Sync, 2, 2, 0xe1fc1c584e03972c,
			[]string{"log=4788efdc584c533e stats=e9ed01568d5935c3 global=e681203a401f23fa", "log=83ad96de21cef27b stats=f128b6d4e54c6c54 global=ddaa5a2c66139703"},
			"v1@0.303471+2[15,20] v2@0.605799+2[25,20] v3@1.318030+2[40,25] v4@1.470702+2[50,25]",
			0x7e27a9515c84a34d},
		{sched.Sync, 3, 1, 0xff09a4ae18b0feb5,
			[]string{"log=e86e4c13e05cd127 stats=5b8b52e537297b9d global=8d9191996c7f7bff", "log=d2c127a8c02757fb stats=a9b980a2f680ab07 global=4b575b56ca5ef586", "log=a236bace0c1be572 stats=77965377b59ed0e6 global=cba71d93ea9f7692"},
			"v1@0.098113+1[5,10,5] v2@0.303471+1[15,20,5] v3@0.465096+1[20,20,5] v4@0.605799+1[25,20,5]",
			0x58ad6acfe2313d12},
		{sched.Sync, 3, 2, 0x2c19cdc644663e15,
			[]string{"log=e86e4c13e05cd127 stats=5b8b52e537297b9d global=46e589b38d51ed1d", "log=d2c127a8c02757fb stats=a9b980a2f680ab07 global=4b575b56ca5ef586", "log=0602b755c7b5a124 stats=e9073f37d014d3dd global=5a2baec4307721ac"},
			"v1@0.303471+2[15,20,5] v2@0.605799+2[25,20,5] v3@0.925234+2[25,20,20] v4@0.966490+2[25,20,30]",
			0x79e90c641d57573c},
		{sched.Deadline, 2, 1, 0x5fbf5133ce9dc6e8,
			[]string{"log=ad224906ed768414 stats=a56ae171a4dc836b global=cba71d93ea9f7692", "log=5a040e31f69eba80 stats=6954936fb3209d10 global=3b3f2466f79990d9"},
			"v1@0.098113+1[7,13] v2@0.163013+1[7,20] v3@0.284458+1[7,27] v4@0.411574+1[7,33]",
			0x6e23385535307464},
		{sched.Deadline, 2, 2, 0xc0f767c8f2e320a3,
			[]string{"log=bc693f1dd73b96c4 stats=d1c2055676dcc509 global=eb5251304e9dfcf6", "log=0116c98acfb8f1cb stats=e009165de65b7f0c global=90d400ba4e464402"},
			"v1@0.163013+2[7,20] v2@0.411574+2[7,33] v3@0.472709+2[13,46] v4@0.491632+2[19,53]",
			0x927af6f5e80852f5},
		{sched.Deadline, 3, 1, 0x5fbf5133ce9dc6e8,
			[]string{"log=ad224906ed768414 stats=a56ae171a4dc836b global=cba71d93ea9f7692", "log=5a040e31f69eba80 stats=6954936fb3209d10 global=3b3f2466f79990d9", "log=98f1376fdfa5561d stats=156c09321c8be32a global=dcbd598c3a3917ac"},
			"v1@0.098113+1[7,13,7] v2@0.163013+1[7,20,7] v3@0.284458+1[7,27,7] v4@0.411574+1[7,33,7]",
			0x322711e30dcc6264},
		{sched.Deadline, 3, 2, 0xc0f767c8f2e320a3,
			[]string{"log=bc693f1dd73b96c4 stats=d1c2055676dcc509 global=eb5251304e9dfcf6", "log=0116c98acfb8f1cb stats=e009165de65b7f0c global=90d400ba4e464402", "log=98f1376fdfa5561d stats=156c09321c8be32a global=dcbd598c3a3917ac"},
			"v1@0.163013+2[7,20,7] v2@0.411574+2[7,33,7] v3@0.472709+2[13,46,7] v4@0.491632+2[19,53,7]",
			0x61e29cf5b9c9139b},
		{sched.DeadlineReuse, 2, 1, 0x5fbf5133ce9dc6e8,
			[]string{"log=ad224906ed768414 stats=a56ae171a4dc836b global=cba71d93ea9f7692", "log=904ebb3d2fc563be stats=7118b1583b6385a5 global=3b3f2466f79990d9"},
			"v1@0.098113+1[7,13] v2@0.163013+1[7,20] v3@0.284458+1[7,27] v4@0.411574+1[7,33]",
			0x6e23385535307464},
		{sched.DeadlineReuse, 2, 2, 0xc30fb2f5d65d9977,
			[]string{"log=9876f285c5d653a1 stats=ff0c32a1866c30f3 global=eb5251304e9dfcf6", "log=84dd9a7f677bae38 stats=7711792c5a6e94ae global=6a02ead0bfa55bb0"},
			"v1@0.163013+2[7,20] v2@0.411574+2[7,33] v3@0.472709+2[13,46] v4@0.491632+2[19,53]",
			0x83d17a7c5c57ebf9},
		{sched.DeadlineReuse, 3, 1, 0x5fbf5133ce9dc6e8,
			[]string{"log=ad224906ed768414 stats=a56ae171a4dc836b global=cba71d93ea9f7692", "log=904ebb3d2fc563be stats=7118b1583b6385a5 global=3b3f2466f79990d9", "log=98f1376fdfa5561d stats=156c09321c8be32a global=dcbd598c3a3917ac"},
			"v1@0.098113+1[7,13,7] v2@0.163013+1[7,20,7] v3@0.284458+1[7,27,7] v4@0.411574+1[7,33,7]",
			0x322711e30dcc6264},
		{sched.DeadlineReuse, 3, 2, 0xc30fb2f5d65d9977,
			[]string{"log=9876f285c5d653a1 stats=ff0c32a1866c30f3 global=eb5251304e9dfcf6", "log=84dd9a7f677bae38 stats=7711792c5a6e94ae global=6a02ead0bfa55bb0", "log=98f1376fdfa5561d stats=156c09321c8be32a global=dcbd598c3a3917ac"},
			"v1@0.163013+2[7,20,7] v2@0.411574+2[7,33,7] v3@0.472709+2[13,46,7] v4@0.491632+2[19,53,7]",
			0x93b82f5b31b80b1f},
		{sched.SemiAsync, 2, 1, 0xcd84362abeacca5f,
			[]string{"log=3bd29d93d6b25970 stats=6c8cecf14e346088 global=a2f834bcfc55f9f5", "log=3f68941c946e4c1c stats=dcdfcee52c30002f global=36550235497ec3e6"},
			"v1@0.010983+1[9,4] v2@0.098113+1[9,9] v3@0.104390+1[9,14] v4@0.139278+1[12,14]",
			0xf94f17bf63e38d9e},
		{sched.SemiAsync, 2, 2, 0x5bd25fd3303a9791,
			[]string{"log=246b217fe3d0fa74 stats=1107721e1346112f global=c241c3c4d4f0c967", "log=1d0b2317e93965da stats=dd8d2feff37a1c5a global=f232da0512cae3e4"},
			"v1@0.098113+2[9,9] v2@0.139278+2[12,14] v3@0.161764+2[15,17] v4@0.188279+2[21,17]",
			0xfc31c36ba1d73c1c},
		{sched.SemiAsync, 3, 1, 0x4eb05d257bde2dcc,
			[]string{"log=42a3275383d415bb stats=1e4accf2732639b0 global=cd84362abeacca5f", "log=3f68941c946e4c1c stats=dcdfcee52c30002f global=adf947033ae59133", "log=ff09965a15b239b9 stats=e5963fdc151ce479 global=e9b7d4661336db63"},
			"v1@0.010983+1[9,4,4] v2@0.016916+1[9,4,9] v3@0.098113+1[9,9,9] v4@0.104390+1[9,14,9]",
			0x72347ef099274c6a},
		{sched.SemiAsync, 3, 2, 0x1f3b5372b7e5ccfe,
			[]string{"log=e19b2ad6d8ef6415 stats=ac975d68ad22ddcf global=7d23c07ba44d3b98", "log=1d0b2317e93965da stats=dd8d2feff37a1c5a global=f36548a1ae9b4bf0", "log=ff09965a15b239b9 stats=e5963fdc151ce479 global=7d5b25e6fcfabb42"},
			"v1@0.016916+2[9,4,9] v2@0.104390+2[9,14,9] v3@0.158330+2[15,17,9] v4@0.175022+2[18,17,9]",
			0x1eb2eaed0219d1e8},
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s/edges=%d/buffer=%d", c.policy, c.edges, c.buffer)
		h := goldenHierarchy(t, c.policy, c.edges, c.buffer)
		var commits []string
		err := h.Run(4, func(gc sched.GlobalCommit) bool {
			lens := make([]string, 0, c.edges)
			for _, ed := range h.Edges() {
				lens = append(lens, fmt.Sprint(len(ed.Eng.Log())))
			}
			commits = append(commits, fmt.Sprintf("v%d@%.6f+%d[%s]", gc.Round, gc.Time, gc.Merged, strings.Join(lens, ",")))
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var edge []string
		for _, ed := range h.Edges() {
			edge = append(edge, fmt.Sprintf("log=%016x stats=%016x global=%016x",
				digest(ed.Eng.Log()), ledgerDigest(ed.Srv.Stats()), nn.HashState(ed.Srv.Global())))
		}
		sorted := append([]string(nil), h.Log()...)
		sort.Strings(sorted)
		if got := nn.HashState(h.Global()); got != c.final {
			t.Errorf("%s: final global hash %016x, want %016x", name, got, c.final)
		}
		if got, want := strings.Join(edge, "\n"), strings.Join(c.edge, "\n"); got != want {
			t.Errorf("%s: edges\n got %s\nwant %s", name, got, want)
		}
		if got := strings.Join(commits, " "); got != c.commits {
			t.Errorf("%s: global commits\n got %s\nwant %s", name, got, c.commits)
		}
		if got := digest(sorted); got != c.sortedLog {
			t.Errorf("%s: sorted global log digest %016x, want %016x", name, got, c.sortedLog)
		}
	}
}
