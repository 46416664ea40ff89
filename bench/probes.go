package main

import (
	"math/rand"
	"sort"
	"time"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
	"adaptivefl/internal/tensor"
	"adaptivefl/internal/wire"
)

// probeInput is what the traced run recorded and the probes replay: the
// shapes (model, pool, one client's shard, batch size) and the dispatch
// mix of the window. Probes run after the window, in the same child, and
// call only exported functions of the layer they time.
type probeInput struct {
	mcfg    models.Config
	pool    *prune.Pool
	global  nn.State
	shard   *data.Dataset
	train   core.TrainConfig
	l       ledger
	clients int
	k       int
	codec   wire.Codec // nil when the workload moves raw states
	dataCfg data.SynthConfig
	// shardSamples / shardClasses are the per-client shard shape.
	shardSamples, shardClasses int
	// pop is set on the lazy-population workload only.
	pop *core.PopulationSpec
}

// batch is the train-step batch: the configured size, capped by the shard.
func (in probeInput) batch() int { return min(in.train.BatchSize, in.shard.Len()) }

// timeIt returns the median wall-clock of reps calls of f.
func timeIt(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t := time.Now()
		f()
		ts[i] = time.Since(t).Seconds()
	}
	return quantile(ts, 0.5)
}

// member resolves a pool member by its paper name.
func member(pool *prune.Pool, name string) (prune.Submodel, bool) {
	for _, m := range pool.Members {
		if m.Name() == name {
			return m, true
		}
	}
	return prune.Submodel{}, false
}

type weighted struct {
	sub prune.Submodel
	w   float64
}

// mixOf turns a name→count map into weighted pool members, heaviest
// first; an empty mix falls back to the largest member.
func mixOf(pool *prune.Pool, counts map[string]int) []weighted {
	total := 0
	for _, n := range counts {
		total += n
	}
	var out []weighted
	for _, name := range sortedKeys(counts) {
		if m, ok := member(pool, name); ok && counts[name] > 0 {
			out = append(out, weighted{m, float64(counts[name]) / float64(total)})
		}
	}
	if len(out) == 0 {
		return []weighted{{pool.Largest(), 1}}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].w > out[b].w })
	return out
}

func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv2d"
	case *nn.DepthwiseConv2D:
		return "depthwise"
	case *nn.BatchNorm2D:
		return "batchnorm"
	case *nn.Linear:
		return "linear"
	case *nn.ReLU, *nn.MaxPool2D, *nn.AvgPool2D, *nn.GlobalAvgPool2D, *nn.Flatten, *nn.Dropout:
		return "act_pool"
	}
	// Residual / inverted-residual blocks are unexported composites of
	// internal/models: their inner layers cannot be walked from outside.
	return "block_other"
}

// gemmShape is one convolution (or dense layer) seen as the per-sample
// GEMM it issues: [m × k] · [k × n].
type gemmShape struct {
	m, k, n           int
	inC, ksz, spatial int // for im2col: input channels, kernel, input side
}

func (g gemmShape) flops() float64 { return 2 * float64(g.m) * float64(g.k) * float64(g.n) }

// convShapes lists the GEMMs one forward pass of l issues per sample, given
// its input and output tensors. Visible Conv2D layers are exact; inside a
// composite block only the 4-D weights are visible (via Params), so its
// convolutions are taken at the block's output resolution — an
// approximation the README states.
func convShapes(l nn.Layer, in, out *tensor.Tensor) []gemmShape {
	switch c := l.(type) {
	case *nn.Conv2D:
		return []gemmShape{{m: c.OutC, k: c.InC * c.K * c.K, n: out.Shape[2] * out.Shape[3],
			inC: c.InC, ksz: c.K, spatial: in.Shape[2]}}
	case *nn.Linear:
		return []gemmShape{{m: out.Shape[1], k: in.Shape[1], n: 1}}
	}
	if layerKind(l) != "block_other" {
		return nil
	}
	var shapes []gemmShape
	for _, p := range l.Params() {
		s := p.Val.Shape
		if p.Buffer || len(s) != 4 || s[1] == 1 {
			continue // not a dense convolution weight (depthwise weights are [C,1,K,K])
		}
		shapes = append(shapes, gemmShape{m: s[0], k: s[1] * s[2] * s[3], n: out.Shape[2] * out.Shape[3],
			inC: s[1], ksz: s[2], spatial: out.Shape[2]})
	}
	return shapes
}

// replica is a stand-alone copy of a convolution hidden inside a composite
// block, rebuilt through nn's exported constructors from the block's
// weight shapes so it can be timed by kind: dense weights are [O,I,K,K],
// depthwise ones [C,1,K,K]. It runs at the block's output resolution with
// stride 1 — the same GEMM / tap work as the (possibly strided) original.
type replica struct {
	kind  string
	layer nn.Layer
	x     *tensor.Tensor
}

func replicas(l nn.Layer, out *tensor.Tensor) []replica {
	if layerKind(l) != "block_other" || len(out.Shape) != 4 {
		return nil
	}
	rng := rand.New(rand.NewSource(1))
	var reps []replica
	for _, p := range l.Params() {
		s := p.Val.Shape
		if p.Buffer || len(s) != 4 {
			continue
		}
		k := s[2]
		if s[1] == 1 && s[0] > 1 {
			reps = append(reps, replica{"depthwise", nn.NewDepthwiseConv2D(rng, p.Name, s[0], k, 1, k/2, false),
				tensor.Randn(rng, 1, out.Shape[0], s[0], out.Shape[2], out.Shape[3])})
			continue
		}
		reps = append(reps, replica{"conv2d", nn.NewConv2D(rng, p.Name, s[1], s[0], k, 1, k/2, false),
			tensor.Randn(rng, 1, out.Shape[0], s[1], out.Shape[2], out.Shape[3])})
	}
	return reps
}

// nnProbe times one local-training step of a pool member at the
// workload's batch, split by layer kind, plus the per-dispatch state
// moves around it. It returns the member's GEMM shapes for tensorProbe.
func nnProbe(in probeInput, sub prune.Submodel, m metrics, w float64) ([]gemmShape, error) {
	var model *models.Model
	var err error
	m["models.build_s"] += w * timeIt(1, func() { model, err = models.Build(in.mcfg, sub.Widths) })
	if err != nil {
		return nil, err
	}
	sliced, err := prune.ExtractForModel(in.global, model)
	if err != nil {
		return nil, err
	}
	m["nn.load_state_s"] += w * timeIt(3, func() { err = nn.LoadState(model, sliced) })
	if err != nil {
		return nil, err
	}
	idx := make([]int, in.batch())
	for i := range idx {
		idx[i] = i
	}
	x, labels := in.shard.Gather(idx)
	params := model.Params()
	opt := nn.NewSGD(in.train.LR, in.train.Momentum, in.train.WeightDecay)
	step := func() {
		nn.ZeroGradParams(params)
		_, grad := nn.CrossEntropy(model.Forward(x, true), labels)
		model.Backward(grad)
		opt.Step(params)
	}
	step() // warm the layer caches and momentum buffers
	m["nn.train_step_s"] += w * timeIt(3, step)

	// The same step walked layer by layer.
	const reps = 3
	acc := map[string][]float64{}
	var shapes []gemmShape
	var inner []replica
	for r := 0; r < reps; r++ {
		one := map[string]float64{}
		clock := func(key string, f func()) {
			t := time.Now()
			f()
			one[key] += time.Since(t).Seconds()
		}
		clock("nn.zero_grad_s", func() { nn.ZeroGradParams(params) })
		h := x
		for _, l := range model.Layers {
			prev := h
			kind := layerKind(l)
			key := "nn." + kind + "_fwd_s"
			if kind == "act_pool" || kind == "block_other" {
				key = "nn." + kind + "_s"
			}
			clock(key, func() { h = l.Forward(prev, true) })
			if r == 0 {
				shapes = append(shapes, convShapes(l, prev, h)...)
				inner = append(inner, replicas(l, h)...)
			}
		}
		var grad *tensor.Tensor
		clock("nn.loss_s", func() { _, grad = nn.CrossEntropy(h, labels) })
		for i := len(model.Layers) - 1; i >= 0; i-- {
			l, g := model.Layers[i], grad
			kind := layerKind(l)
			key := "nn." + kind + "_bwd_s"
			if kind == "act_pool" || kind == "block_other" {
				key = "nn." + kind + "_s"
			}
			clock(key, func() { grad = l.Backward(g) })
		}
		clock("nn.sgd_step_s", func() { opt.Step(params) })
		// The convolutions inside composite blocks, replayed by kind and
		// moved out of the blocks' lump.
		for _, rp := range inner {
			var y *tensor.Tensor
			t := time.Now()
			y = rp.layer.Forward(rp.x, true)
			fwd := time.Since(t).Seconds()
			t = time.Now()
			rp.layer.Backward(y)
			bwd := time.Since(t).Seconds()
			one["nn."+rp.kind+"_fwd_s"] += fwd
			one["nn."+rp.kind+"_bwd_s"] += bwd
			one["nn.block_other_s"] = max(one["nn.block_other_s"]-fwd-bwd, 0)
		}
		for k, v := range one {
			acc[k] = append(acc[k], v)
		}
	}
	for k, vs := range acc {
		m[k] += w * quantile(vs, 0.5)
	}
	m["nn.state_dict_s"] += w * timeIt(3, func() { nn.StateDict(model) })
	return shapes, nil
}

// tensorProbe times the kernels under the heaviest convolution of the
// largest trained member: its per-sample GEMM, and the batch im2col /
// col2im around it.
func tensorProbe(in probeInput, shapes []gemmShape, m metrics) {
	var top gemmShape
	for _, g := range shapes {
		if g.inC > 0 && g.flops() > top.flops() {
			top = g
		}
	}
	if top.m == 0 {
		return
	}
	rng := rand.New(rand.NewSource(1))
	a, b, c := tensor.Randn(rng, 1, top.m, top.k), tensor.Randn(rng, 1, top.k, top.n), tensor.New(top.m, top.n)
	gemm := func() { tensor.Gemm(false, false, 1, a, b, 0, c) }
	gemm()
	m["tensor.gemm_s"] = timeIt(9, gemm)
	m["tensor.gemm_gflops"] = top.flops() / m["tensor.gemm_s"] / 1e9

	batch := in.batch()
	pad := top.ksz / 2
	x := tensor.Randn(rng, 1, batch, top.inC, top.spatial, top.spatial)
	out := tensor.ConvOutSize(top.spatial, top.ksz, 1, pad)
	cols := tensor.New(top.inC*top.ksz*top.ksz, batch*out*out)
	m["tensor.im2col_s"] = timeIt(9, func() { tensor.Im2ColBatch(x, top.ksz, top.ksz, 1, pad, cols) })
	m["tensor.col2im_s"] = timeIt(9, func() {
		tensor.Col2ImBatch(cols, top.inC, top.spatial, top.spatial, top.ksz, top.ksz, 1, pad, x)
	})

	// gemm_share: the train step's GEMM work (forward + the two backward
	// GEMMs of every listed layer, whole batch) at the rate just measured,
	// as a share of the measured step. An estimate: the layers' own GEMMs
	// cannot be timed from outside.
	work := 0.0
	for _, g := range shapes {
		work += 3 * g.flops() * float64(batch)
	}
	share := work / (m["tensor.gemm_gflops"] * 1e9) / m["nn.train_step_s"]
	m["tensor.gemm_share"] = min(share, 1)
}

// pruneProbe times Pool.ExtractState over the dispatched mix and the
// pool build of set-up. It returns the mean seconds of one extraction.
func pruneProbe(in probeInput, m metrics) (float64, error) {
	var err error
	m["prune.build_pool_s"] = timeIt(3, func() { _, err = prune.BuildPool(in.mcfg, prune.Config{P: in.pool.P}) })
	if err != nil {
		return 0, err
	}
	perCall := 0.0
	for _, wm := range mixOf(in.pool, in.l.sentMix) {
		perCall += wm.w * timeIt(3, func() { _, err = in.pool.ExtractState(in.global, wm.sub) })
		if err != nil {
			return 0, err
		}
	}
	return perCall, nil
}

// aggProbe times the plain and the trimmed mean on one commit's update
// mix (extracted global slices stand in for trained states: aggregation
// cost depends on shapes and counts, not values).
func aggProbe(in probeInput, m metrics) error {
	n := 1
	if in.l.commits > 0 {
		n = max(1, (in.l.merged+in.l.lateReused)/in.l.commits)
	}
	var updates []agg.Update
	for _, wm := range mixOf(in.pool, in.l.trained) {
		st, err := in.pool.ExtractState(in.global, wm.sub)
		if err != nil {
			return err
		}
		for i := 0; i < max(1, int(wm.w*float64(n)+0.5)) && len(updates) < n; i++ {
			updates = append(updates, agg.Update{State: st, Weight: float64(in.shard.Len())})
		}
	}
	var err error
	m["agg.mean_s"] = timeIt(3, func() { _, err = agg.Aggregate(in.global, updates) })
	if err != nil {
		return err
	}
	m["agg.trim_s"] = timeIt(3, func() { _, err = agg.TrimmedMean{Frac: 0.2}.Aggregate(in.global, updates) })
	return err
}

// rlProbe times one client selection and one table update: dense tables
// over a permutation of the fleet on an eager population, sparse tables
// over a bounded candidate sample on the lazy one (what PlanSlots does).
func rlProbe(in probeInput, m metrics) {
	rng := rand.New(rand.NewSource(1))
	var tables *rl.Tables
	var candidates []int
	if in.pop != nil {
		tables = rl.NewSparseTables(rl.Config{}, in.pool.P, len(in.pool.Members), in.clients)
		for len(candidates) < max(64, 8*in.k) {
			candidates = append(candidates, rng.Intn(in.clients))
		}
	} else {
		tables = rl.NewTables(rl.Config{}, in.pool.P, len(in.pool.Members), in.clients)
		candidates = rng.Perm(in.clients)
	}
	const calls = 200
	var sel, rec float64
	for i := 0; i < calls; i++ {
		sub := in.pool.Members[rng.Intn(len(in.pool.Members))]
		var c int
		t := time.Now()
		c, _ = tables.TrySelectClient(rng, rl.ModeCS, sub, in.pool, candidates)
		sel += time.Since(t).Seconds()
		t = time.Now()
		tables.RecordDispatch(sub, sub, c)
		rec += time.Since(t).Seconds()
	}
	m["rl.select_s"] = sel / calls
	m["rl.record_s"] = rec / calls
}

// dataProbe times the batch path of local training (Batches + Gather),
// one shard generation and the set-up's dataset generation.
func dataProbe(in probeInput, m metrics) error {
	rng := rand.New(rand.NewSource(1))
	var batches [][]int
	m["data.batches_s"] = timeIt(9, func() { batches = in.shard.Batches(rng, in.train.BatchSize) })
	m["data.gather_s"] = timeIt(9, func() { in.shard.Gather(batches[0]) })
	var ws *data.WriterSampler
	var err error
	samplerBuild := timeIt(1, func() { ws, err = data.NewWriterSampler(in.dataCfg) })
	if err != nil {
		return err
	}
	seed := int64(0)
	m["data.shard_gen_s"] = timeIt(5, func() {
		seed++
		_, err = ws.Shard(seed, in.shardSamples, in.shardClasses, 0.15, 0.15)
	})
	if err != nil {
		return err
	}
	if in.pop != nil {
		// The lazy population's set-up generates no data beyond the shared
		// prototype bank.
		m["data.generate_s"] = samplerBuild
		return nil
	}
	m["data.generate_s"] = timeIt(1, func() { data.Generate(in.dataCfg) })
	return nil
}

// lazyProbe times LazyPopulation.Client on a miss (materialise: device +
// shard generation) and on a hit, on a fresh population of the run's spec.
func lazyProbe(in probeInput, m metrics) error {
	if in.pop == nil {
		return nil
	}
	ws, err := data.NewWriterSampler(in.dataCfg)
	if err != nil {
		return err
	}
	gen := func(c int, seed int64) *data.Dataset {
		d, err := ws.Shard(seed, in.shardSamples, in.shardClasses, 0.15, 0.15)
		if err != nil {
			panic(err) // parameters were validated by the run itself
		}
		return d
	}
	pop, err := core.NewLazyPopulation(*in.pop, in.pool, core.DefaultDeviceModel(), gen, 0)
	if err != nil {
		return err
	}
	const n = 32
	var cold, warm float64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			c := (i*31337 + 7) % in.clients
			t := time.Now()
			pop.Client(c)
			if d := time.Since(t).Seconds(); pass == 0 {
				cold += d
			} else {
				warm += d
			}
		}
	}
	m["core.lazy_cold_s"], m["core.lazy_warm_s"] = cold/n, warm/n
	return nil
}

// codecProbe times one encode and one decode of the largest dispatched
// member — used where the codec runs out of the bench's sight (inside
// fednet's trainer and agents).
func codecProbe(in probeInput, m metrics) error {
	if in.codec == nil {
		return nil
	}
	st, err := in.pool.ExtractState(in.global, mixOf(in.pool, in.l.sentMix)[0].sub)
	if err != nil {
		return err
	}
	var enc []byte
	encS := timeIt(3, func() { enc, err = in.codec.Encode(st, nil) })
	if err != nil {
		return err
	}
	decS := timeIt(3, func() { _, err = in.codec.Decode(enc, nil) })
	if err != nil {
		return err
	}
	m["wire.encode_mib_per_s"] = float64(len(enc)) / mib / encS
	m["wire.decode_mib_per_s"] = float64(len(enc)) / mib / decS
	return nil
}

// runProbes fills the probe-derived per-layer metrics. It returns the
// mean seconds of one Pool.ExtractState call over the dispatch mix.
func runProbes(in probeInput, m metrics) (extractCall float64, err error) {
	var shapes []gemmShape
	top := -1
	for _, wm := range mixOf(in.pool, in.l.trained) {
		s, err := nnProbe(in, wm.sub, m, wm.w)
		if err != nil {
			return 0, err
		}
		if wm.sub.Index > top {
			top, shapes = wm.sub.Index, s
		}
	}
	tensorProbe(in, shapes, m)
	if extractCall, err = pruneProbe(in, m); err != nil {
		return 0, err
	}
	if err := aggProbe(in, m); err != nil {
		return 0, err
	}
	rlProbe(in, m)
	if err := dataProbe(in, m); err != nil {
		return 0, err
	}
	if err := lazyProbe(in, m); err != nil {
		return 0, err
	}
	m["nn.hash_state_s"] = timeIt(3, func() { nn.HashState(in.global) })
	return extractCall, nil
}
