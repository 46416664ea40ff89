package fednet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/tensor"
	"adaptivefl/internal/testbed"
	"adaptivefl/internal/wire"
)

func testModelCfg() models.Config {
	return models.Config{Arch: models.ResNet18, NumClasses: 4, WidthScale: 0.07, Seed: 3}
}

func buildClients(t *testing.T, n int) []*core.Client {
	t.Helper()
	pool, err := prune.BuildPool(testModelCfg(), prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	dcfg := data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32,
		Train: n * 16, Test: 20, Noise: 0.3, Seed: 61}
	train, _ := data.Generate(dcfg)
	rng := rand.New(rand.NewSource(62))
	parts := data.PartitionIID(rng, train.Len(), n)
	devices := core.NewPopulation(rng, n, [3]float64{4, 3, 3}, pool, core.DefaultDeviceModel())
	clients := make([]*core.Client, n)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}
	return clients
}

// syncEngine puts srv on the scheduler engine's sync policy at width k,
// which runs every AdaptiveFL round, priced on the Table 5 platform with
// every client always online.
func syncEngine(t *testing.T, srv *core.Server, k int) *sched.Engine {
	t.Helper()
	sim, err := testbed.NewSim(testbed.Table5Platform())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sched.New(srv, sim, nil, sched.Config{Policy: sched.Sync, K: k, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func quickTrain() core.TrainConfig {
	return core.TrainConfig{LocalEpochs: 1, BatchSize: 8, LR: 0.05, Momentum: 0.5}
}

// TestFederatedOverHTTPMatchesLocal spins one HTTP agent per client and
// runs Algorithm 1 through the network stack; the resulting global model
// must be identical to the in-process run with the same seeds. Device
// jitter is disabled so both runs see the same capacities.
func TestFederatedOverHTTPMatchesLocal(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 5)
	for _, c := range clients {
		c.Device.Jitter = 0
	}

	runLocal := func() map[string]float64 {
		srv, err := core.NewServer(core.Config{
			Model: mcfg, Pool: pcfg, ClientsPerRound: 3,
			Train: quickTrain(), Seed: 63,
		}, clients)
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

	runHTTP := func() map[string]float64 {
		urls := make([]string, len(clients))
		for i, c := range clients {
			agent, err := NewAgent(c, mcfg, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(agent)
			defer ts.Close()
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
		if err := syncEngine(t, srv, 3).Run(2, nil); err != nil {
			t.Fatal(err)
		}
		sums := map[string]float64{}
		for name, v := range srv.Global() {
			sums[name] = v.Sum()
		}
		return sums
	}

	local, remote := runLocal(), runHTTP()
	if len(local) != len(remote) {
		t.Fatalf("parameter sets differ: %d vs %d", len(local), len(remote))
	}
	for name, v := range local {
		if remote[name] != v {
			t.Fatalf("parameter %q differs between local and HTTP runs", name)
		}
	}
}

func TestAgentPrunesToCapacity(t *testing.T) {
	mcfg := testModelCfg()
	clients := buildClients(t, 1)
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Force a weak capacity: only S-level models fit.
	sAnchor := pool.ByLevel(prune.LevelS)
	clients[0].Device.Base = sAnchor[len(sAnchor)-1].Size
	clients[0].Device.Jitter = 0

	agent, err := NewAgent(clients[0], mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	global := buildGlobal(t, mcfg)
	l1 := pool.Largest()
	st, err := pool.ExtractState(global, l1)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := agent.Train(TrainRequest{SentIndex: l1.Index, State: wire, Train: quickTrain(), Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed {
		t.Fatal("agent failed unexpectedly")
	}
	if got := pool.Members[resp.GotIndex]; got.Level != prune.LevelS {
		t.Fatalf("agent trained %s, want S-level under weak capacity", got.Name())
	}
}

func TestAgentReportsFailure(t *testing.T) {
	mcfg := testModelCfg()
	clients := buildClients(t, 1)
	clients[0].Device.Base = 1 // nothing fits
	clients[0].Device.Jitter = 0
	agent, err := NewAgent(clients[0], mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	global := buildGlobal(t, mcfg)
	l1 := agent.Pool.Largest()
	st, err := agent.Pool.ExtractState(global, l1)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := agent.Train(TrainRequest{SentIndex: l1.Index, State: wire, Train: quickTrain(), Seed: 65})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Failed {
		t.Fatal("agent should report failure when nothing fits")
	}
}

// TestAgentTrainsLazyClient runs an agent over a lazily materialised
// client, whose Data stays nil: the agent trains on the shard the client
// cuts at its first training and reports the spec's sample count.
func TestAgentTrainsLazyClient(t *testing.T) {
	mcfg := testModelCfg()
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.ParsePopulation("mix:n=4,samples=8")
	if err != nil {
		t.Fatal(err)
	}
	cuts := 0
	gen := func(c int, seed int64) *data.Dataset {
		cuts++
		ds, _ := data.Generate(data.SynthConfig{Name: "t", Classes: 4, Channels: 3, Size: 32,
			Train: 8, Test: 1, Noise: 0.3, Seed: seed})
		return ds
	}
	pop, err := core.NewLazyPopulation(spec, pool, core.DefaultDeviceModel(), gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	client := pop.Client(2)
	client.Device.Base = pool.Largest().Size // everything fits
	client.Device.Jitter = 0
	agent, err := NewAgent(client, mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	l1 := pool.Largest()
	st, err := pool.ExtractState(buildGlobal(t, mcfg), l1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := agent.Train(TrainRequest{SentIndex: l1.Index, State: body, Train: quickTrain(), Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed || resp.Samples != 8 || cuts != 1 {
		t.Fatalf("failed=%v samples=%d cuts=%d, want a trained upload of 8 samples from one cut", resp.Failed, resp.Samples, cuts)
	}
}

func TestAgentRejectsBadIndex(t *testing.T) {
	mcfg := testModelCfg()
	clients := buildClients(t, 1)
	agent, err := NewAgent(clients[0], mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(TrainRequest{SentIndex: 99}); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestHTTPTrainerErrors(t *testing.T) {
	pool, err := prune.BuildPool(testModelCfg(), prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewHTTPTrainer([]string{"http://127.0.0.1:1"}, pool, quickTrain())
	if _, err := tr.Train(core.TrainRequest{Client: 5, Sent: pool.Largest(), Seed: 1}); err == nil {
		t.Fatal("missing URL accepted")
	}
}

// TestFederatedOverHTTPWithCodecMatchesLocal: with a lossy codec on both
// paths, the network stack and the in-process codec round-trip
// (core.Config.Codec) must produce bitwise-identical global models — the
// whole point of threading the codec through the simulation path.
func TestFederatedOverHTTPWithCodecMatchesLocal(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	for _, codec := range []wire.Codec{wire.Q8{}, wire.NewDeltaTopK()} {
		t.Run(codec.Tag(), func(t *testing.T) {
			clients := buildClients(t, 5)
			for _, c := range clients {
				c.Device.Jitter = 0
			}
			run := func(trainer core.Trainer, inProcessCodec wire.Codec) map[string]float64 {
				srv, err := core.NewServer(core.Config{
					Model: mcfg, Pool: pcfg, ClientsPerRound: 3,
					Train: quickTrain(), Seed: 63,
					Trainer: trainer, Codec: inProcessCodec,
				}, clients)
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
				// The ledger must carry real encoded sizes on every round.
				for _, st := range srv.Stats() {
					if st.SentBytes == 0 {
						t.Fatalf("round %d recorded no sent bytes", st.Round)
					}
				}
				return sums
			}

			local := run(nil, codec)

			urls := make([]string, len(clients))
			for i, c := range clients {
				agent, err := NewAgent(c, mcfg, pcfg)
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(agent)
				defer ts.Close()
				urls[i] = ts.URL
			}
			pool, err := prune.BuildPool(mcfg, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			trainer := NewHTTPTrainer(urls, pool, quickTrain())
			trainer.Negotiate(codec)
			remote := run(trainer, nil)

			for name, v := range local {
				if remote[name] != v {
					t.Fatalf("parameter %q differs between codec-local and codec-HTTP runs", name)
				}
			}
		})
	}
}

// TestNegotiate: the server picks the first preferred codec each agent
// supports and falls back to the default for agents that support none.
func TestNegotiate(t *testing.T) {
	mcfg := testModelCfg()
	clients := buildClients(t, 2)
	urls := make([]string, 2)
	for i, accept := range [][]string{{wire.TagRaw, wire.TagQ8}, {wire.TagRaw}} {
		agent, err := NewAgent(clients[i], mcfg, prune.Config{P: 3})
		if err != nil {
			t.Fatal(err)
		}
		agent.Codecs = accept
		ts := httptest.NewServer(agent)
		defer ts.Close()
		urls[i] = ts.URL
	}
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewHTTPTrainer(urls, pool, quickTrain())
	tr.Negotiate(wire.NewDeltaTopK(), wire.Q8{})
	if got := tr.codecFor(0).Tag(); got != wire.TagQ8 {
		t.Fatalf("client 0 negotiated %q, want q8 (delta unsupported there)", got)
	}
	if got := tr.codecFor(1).Tag(); got != wire.TagRaw {
		t.Fatalf("client 1 negotiated %q, want the raw fallback", got)
	}
}

// TestAgentRejectsUnsupportedCodec: a dispatch tagged with a codec outside
// the agent's accept list must fail loudly.
func TestAgentRejectsUnsupportedCodec(t *testing.T) {
	mcfg := testModelCfg()
	clients := buildClients(t, 1)
	agent, err := NewAgent(clients[0], mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	agent.Codecs = []string{wire.TagRaw}
	global := buildGlobal(t, mcfg)
	l1 := agent.Pool.Largest()
	st, err := agent.Pool.ExtractState(global, l1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := wire.Q8{}.Encode(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Train(TrainRequest{SentIndex: l1.Index, Codec: wire.TagQ8, State: enc, Train: quickTrain(), Seed: 9}); err == nil {
		t.Fatal("unsupported codec accepted")
	}
}

// buildGlobal materialises a full-width global state for tests.
func buildGlobal(t *testing.T, mcfg models.Config) nn.State {
	t.Helper()
	m, err := models.Build(mcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return nn.StateDict(m)
}

// encodeState is the raw codec's encoding, the body an untagged peer sends.
func encodeState(st nn.State) ([]byte, error) { return wire.Raw{}.Encode(st, nil) }

// countingCodec wraps a codec and counts Decode calls; embedding keeps the
// tag, so agents resolve the real codec from the registry while the
// trainer's own decodes go through the wrapper.
type countingCodec struct {
	wire.Codec
	decodes *int32
}

func (c countingCodec) Decode(b []byte, ref nn.State) (nn.State, error) {
	atomic.AddInt32(c.decodes, 1)
	return c.Codec.Decode(b, ref)
}

// TestDownlinkRefCachedPerRound pins the artifact store behind the
// downlink: with a reference-using codec (delta), repeated dispatches of
// one member within one snapshot encode the payload exactly once and never
// decode it (the artifact's State is built from the encoder's side), later
// dispatches revalidate bodyless via If-None-Match, and a changed snapshot
// keys — and pays for — a fresh artifact.
func TestDownlinkRefCachedPerRound(t *testing.T) {
	mcfg := testModelCfg()
	clients := buildClients(t, 1)
	clients[0].Device.Jitter = 0
	agent, err := NewAgent(clients[0], mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var postLens []int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			postLens = append(postLens, r.ContentLength)
			mu.Unlock()
		}
		agent.ServeHTTP(w, r)
	}))
	defer ts.Close()

	pool := agent.Pool
	delta, err := wire.ByTag(wire.TagDelta)
	if err != nil {
		t.Fatal(err)
	}
	var decodes int32
	tr := NewHTTPTrainer([]string{ts.URL}, pool, quickTrain())
	tr.Negotiate(countingCodec{Codec: delta, decodes: &decodes})

	global := buildGlobal(t, mcfg)
	sent := pool.Smallest()
	st, err := pool.ExtractState(global, sent)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tr.Train(core.TrainRequest{Client: 0, Sent: sent, State: st, Seed: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt32(&decodes); got != 0 {
		t.Fatalf("snapshot decoded the downlink artifact %d times, want 0", got)
	}
	if enc := tr.Artifacts().Encodes(); enc != 1 {
		t.Fatalf("store encoded %d artifacts, want 1", enc)
	}
	// Dispatches 2 and 3 must have revalidated: bodyless conditionals, a
	// fraction of the full dispatch.
	mu.Lock()
	lens := append([]int64(nil), postLens...)
	mu.Unlock()
	if len(lens) != 3 {
		t.Fatalf("agent saw %d POSTs, want 3", len(lens))
	}
	for i, n := range lens[1:] {
		if n >= lens[0]/2 {
			t.Fatalf("dispatch %d not revalidated: %d bytes vs %d full", i+2, n, lens[0])
		}
	}
	// A new snapshot (any weight change) is a new content address: the
	// next dispatch encodes afresh and carries a full body again.
	st2 := st.Clone()
	for _, ten := range st2 {
		ten.Data[0] += 0.5
		break
	}
	if _, err := tr.Train(core.TrainRequest{Client: 0, Sent: sent, State: st2, Seed: 200}); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&decodes); got != 0 {
		t.Fatalf("new snapshot decoded the downlink artifact (total %d decodes, want 0)", got)
	}
	if enc := tr.Artifacts().Encodes(); enc != 2 {
		t.Fatalf("store encoded %d artifacts after snapshot change, want 2", enc)
	}
}

// requireSameBits fails unless got holds want's tensors with want's shapes
// and bit patterns.
func requireSameBits(t *testing.T, what string, got, want nn.State) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tensors, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || !tensor.SameShape(g, w) {
			t.Fatalf("%s: %q is %v, want shape %v", what, name, g, w.Shape)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%s: %q[%d] = %v, want %v", what, name, i, g.Data[i], w.Data[i])
			}
		}
	}
}

// TestDownlinkBytesStatePerCodec: the launch-time bound encodes an
// artifact per preferred codec, and the store rounds each artifact's state
// in place, so each codec must get a state of its own. Sharing one would
// hand the second encode the first codec's rounding, and leave the first
// artifact's State rounded by both.
func TestDownlinkBytesStatePerCodec(t *testing.T) {
	mcfg := testModelCfg()
	clients := buildClients(t, 1)
	agent, err := NewAgent(clients[0], mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(agent)
	defer ts.Close()
	tr := NewHTTPTrainer([]string{ts.URL}, agent.Pool, quickTrain())
	codecs := []wire.Codec{wire.Q8{}, wire.F32{}}
	tr.Negotiate(codecs...)

	sent := agent.Pool.Smallest()
	st, err := agent.Pool.ExtractState(buildGlobal(t, mcfg), sent)
	if err != nil {
		t.Fatal(err)
	}
	orig := st.Clone()
	calls := 0
	req := core.TrainRequest{Client: 0, Sent: sent, Snapshot: nn.HashState(st)}
	if _, err := tr.DownlinkBytes(req, func() (nn.State, error) { calls++; return st.Clone(), nil }); err != nil {
		t.Fatal(err)
	}
	if calls != len(codecs) {
		t.Fatalf("state called %d times for %d codec misses", calls, len(codecs))
	}
	requireSameBits(t, "the caller's state", st, orig)
	for _, c := range codecs {
		key := wire.ArtifactKey{Snapshot: req.Snapshot, Member: sent.Index, Codec: c.Tag()}
		art, err := tr.Artifacts().Get(key, c, func() (nn.State, error) {
			return nil, fmt.Errorf("%s artifact not resident", c.Tag())
		})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := c.Encode(orig, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(art.Bytes, direct) {
			t.Fatalf("%s: artifact bytes differ from an encode of the dispatched state", c.Tag())
		}
		dec, err := c.Decode(art.Bytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, c.Tag()+" artifact State", art.State, dec)
	}
}

// TestTrainLeavesRequestState: a dispatch builds its artifact from a copy,
// so the state the caller handed over comes back bit-identical — a 415
// re-negotiation re-encodes it under another codec.
func TestTrainLeavesRequestState(t *testing.T) {
	mcfg := testModelCfg()
	clients := buildClients(t, 1)
	agent, err := NewAgent(clients[0], mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(agent)
	defer ts.Close()
	tr := NewHTTPTrainer([]string{ts.URL}, agent.Pool, quickTrain())
	tr.Negotiate(wire.Q8{})

	sent := agent.Pool.Smallest()
	st, err := agent.Pool.ExtractState(buildGlobal(t, mcfg), sent)
	if err != nil {
		t.Fatal(err)
	}
	orig := st.Clone()
	if _, err := tr.Train(core.TrainRequest{Client: 0, Sent: sent, State: st, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "req.State after Train", st, orig)
}
