// Package adaptivefl's repository-level benchmarks: one testing.B entry
// per paper table/figure (each measures the marginal cost of the
// experiment's unit of work — an FL round, a pool split, a test-bed
// simulation step — at a reduced scale), plus micro-benchmarks for the
// computational substrate. Regenerating the full artefacts is
// cmd/flbench's job; these benches keep the harness honest and fast.
package adaptivefl

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/baselines"
	"adaptivefl/internal/core"
	"adaptivefl/internal/data"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/tensor"
	"adaptivefl/internal/testbed"
	"adaptivefl/internal/wire"
)

// benchScale is a miniature configuration so each FL-round iteration costs
// tens of milliseconds.
func benchScale() exp.Scale {
	return exp.Scale{
		Name: "bench", Clients: 8, K: 3, Rounds: 1, EvalEvery: 1,
		SamplesPerClient: 12, TestSamples: 40, WidthScale: 0.07,
		LocalEpochs: 1, BatchSize: 6, LR: 0.05, Momentum: 0.5,
		Parallelism: 3, Seed: 1,
	}
}

func benchRunner(b *testing.B, alg string, arch models.Arch, dataset string, dist exp.Dist) baselines.Runner {
	b.Helper()
	sc := benchScale()
	fed, err := exp.BuildFederation(arch, dataset, dist, exp.DefaultProportions, sc)
	if err != nil {
		b.Fatal(err)
	}
	r, err := exp.NewRunner(alg, fed, sc)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func benchRounds(b *testing.B, r baselines.Runner) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Round(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_SplitVGG16 measures building the full-scale Table 1
// pool (the split step of every AdaptiveFL round, Algorithm 1 line 4).
func BenchmarkTable1_SplitVGG16(b *testing.B) {
	cfg := models.Config{Arch: models.VGG16, NumClasses: 10}
	for i := 0; i < b.N; i++ {
		if _, err := prune.BuildPool(cfg, prune.Config{P: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 2 benches: one FL round per compared algorithm.

func BenchmarkTable2_AdaptiveFL_VGG16_CIFAR10(b *testing.B) {
	benchRounds(b, benchRunner(b, "AdaptiveFL", models.VGG16, "cifar10", exp.IID))
}

func BenchmarkTable2_AllLarge_VGG16_CIFAR10(b *testing.B) {
	benchRounds(b, benchRunner(b, "All-Large", models.VGG16, "cifar10", exp.IID))
}

func BenchmarkTable2_Decoupled_VGG16_CIFAR10(b *testing.B) {
	benchRounds(b, benchRunner(b, "Decoupled", models.VGG16, "cifar10", exp.IID))
}

func BenchmarkTable2_HeteroFL_VGG16_CIFAR10(b *testing.B) {
	benchRounds(b, benchRunner(b, "HeteroFL", models.VGG16, "cifar10", exp.IID))
}

func BenchmarkTable2_ScaleFL_VGG16_CIFAR10(b *testing.B) {
	benchRounds(b, benchRunner(b, "ScaleFL", models.VGG16, "cifar10", exp.IID))
}

func BenchmarkTable2_AdaptiveFL_ResNet18_CIFAR100_Dir03(b *testing.B) {
	benchRounds(b, benchRunner(b, "AdaptiveFL", models.ResNet18, "cifar100", exp.Dir03))
}

func BenchmarkTable2_AdaptiveFL_ResNet18_FEMNIST(b *testing.B) {
	benchRounds(b, benchRunner(b, "AdaptiveFL", models.ResNet18, "femnist", exp.Natural))
}

// BenchmarkFigure2_CurveEvaluation measures one learning-curve point (the
// avg/full evaluation recorded every EvalEvery rounds in Figure 2).
func BenchmarkFigure2_CurveEvaluation(b *testing.B) {
	sc := benchScale()
	fed, err := exp.BuildFederation(models.VGG16, "cifar10", exp.IID, exp.DefaultProportions, sc)
	if err != nil {
		b.Fatal(err)
	}
	r, err := exp.NewRunner("AdaptiveFL", fed, sc)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Round(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Evaluate(fed.Test, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3_SubmodelExtraction measures slicing the three level
// submodels out of the global model (Figure 3's measurement step).
func BenchmarkFigure3_SubmodelExtraction(b *testing.B) {
	cfg := models.Config{Arch: models.VGG16, NumClasses: 10, WidthScale: 0.25, Seed: 1}
	pool, err := prune.BuildPool(cfg, prune.Config{P: 3})
	if err != nil {
		b.Fatal(err)
	}
	global := nn.StateDict(models.MustBuild(cfg, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"S1", "M1", "L1"} {
			for _, m := range pool.Members {
				if m.Name() != name {
					continue
				}
				if _, err := pool.ExtractState(global, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFigure4_Round_K50 measures one round at the Figure 4 scalability
// sweep's smallest population (50 clients, 5 per round).
func BenchmarkFigure4_Round_K50(b *testing.B) {
	sc := benchScale()
	sc.Clients = 50
	sc.K = 5
	fed, err := exp.BuildFederation(models.ResNet18, "cifar10", exp.Dir06, exp.DefaultProportions, sc)
	if err != nil {
		b.Fatal(err)
	}
	r, err := exp.NewRunner("AdaptiveFL", fed, sc)
	if err != nil {
		b.Fatal(err)
	}
	benchRounds(b, r)
}

// BenchmarkTable3_Round_Proportion811 measures a round under the 8:1:1
// weak-heavy device mix of Table 3.
func BenchmarkTable3_Round_Proportion811(b *testing.B) {
	sc := benchScale()
	fed, err := exp.BuildFederation(models.VGG16, "cifar10", exp.IID, [3]float64{8, 1, 1}, sc)
	if err != nil {
		b.Fatal(err)
	}
	r, err := exp.NewRunner("AdaptiveFL", fed, sc)
	if err != nil {
		b.Fatal(err)
	}
	benchRounds(b, r)
}

// BenchmarkTable4_CoarseRound measures a round with the coarse (p=1) pool
// of the Table 4 ablation.
func BenchmarkTable4_CoarseRound(b *testing.B) {
	benchRounds(b, benchRunner(b, "AdaptiveFL-Coarse", models.VGG16, "cifar10", exp.IID))
}

// BenchmarkFigure5_RLSelection measures the RL client-selection step
// (reward computation + sampling) on a 100-client population.
func BenchmarkFigure5_RLSelection(b *testing.B) {
	pool, err := prune.BuildPool(models.Config{Arch: models.ResNet18, NumClasses: 100, WidthScale: 0.25}, prune.Config{P: 3})
	if err != nil {
		b.Fatal(err)
	}
	tables := rl.NewTables(rl.Config{}, 3, len(pool.Members), 100)
	rng := rand.New(rand.NewSource(1))
	candidates := make([]int, 100)
	for i := range candidates {
		candidates[i] = i
	}
	// Populate with plausible history.
	for i := 0; i < 500; i++ {
		sent := pool.Members[rng.Intn(len(pool.Members))]
		got, ok := pool.LargestFit(sent, pool.Members[rng.Intn(len(pool.Members))].Size)
		if !ok {
			got = pool.Smallest()
		}
		tables.RecordDispatch(sent, got, rng.Intn(100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables.SelectClient(rng, rl.ModeCS, pool.Members[i%len(pool.Members)], pool, candidates)
	}
}

// BenchmarkFigure6_TestbedRound measures one simulated test-bed round
// (MobileNetV2, Widar-like, Table 5 platform, which the runner's engine
// prices every dispatch on).
func BenchmarkFigure6_TestbedRound(b *testing.B) {
	sc := benchScale()
	sc.Clients = 17
	sc.K = 5
	fed, err := exp.BuildFederation(models.MobileNetV2, "widar", exp.Natural, [3]float64{4, 10, 3}, sc)
	if err != nil {
		b.Fatal(err)
	}
	r, err := exp.NewRunner("AdaptiveFL", fed, sc)
	if err != nil {
		b.Fatal(err)
	}
	benchRounds(b, r)
}

// --- substrate micro-benchmarks ---

func BenchmarkGEMM_128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 128, 128)
	y := tensor.Randn(rng, 1, 128, 128)
	c := tensor.New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(false, false, 1, x, y, 0, c)
	}
}

func BenchmarkConvForward_VGGBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewConv2D(rng, "c", 16, 16, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 8, 16, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

// seedConvForward reproduces the seed's per-sample conv forward — one
// im2col and one scalar i-k-j GEMM per sample, with the branchy av==0
// inner loop — so the batched-path speedup can be measured against it in
// the same process regardless of machine load.
func seedConvForward(w, x *tensor.Tensor, k, stride, pad int) *tensor.Tensor {
	n, ci, h, ww := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC := w.Shape[0]
	oh := tensor.ConvOutSize(h, k, stride, pad)
	ow := tensor.ConvOutSize(ww, k, stride, pad)
	spatial := oh * ow
	wm := w.Reshape(outC, ci*k*k)
	cols := tensor.New(ci*k*k, spatial)
	out := tensor.New(n, outC, oh, ow)
	for s := 0; s < n; s++ {
		xs := tensor.FromSlice(x.Data[s*ci*h*ww:(s+1)*ci*h*ww], ci, h, ww)
		tensor.Im2Col(xs, k, k, stride, pad, cols)
		ys := out.Data[s*outC*spatial : (s+1)*outC*spatial]
		for i := 0; i < outC; i++ {
			yi := ys[i*spatial : (i+1)*spatial]
			ai := wm.Data[i*ci*k*k : (i+1)*ci*k*k]
			for p, av := range ai {
				if av == 0 {
					continue
				}
				bp := cols.Data[p*spatial : (p+1)*spatial]
				for j, bv := range bp {
					yi[j] += av * bv
				}
			}
		}
	}
	return out
}

// BenchmarkConvForward_SeedPerSample is the pre-batching baseline for
// BenchmarkConvForward_VGGBlock: same shapes, per-sample seed path.
func BenchmarkConvForward_SeedPerSample(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, 8, 16, 16, 16)
	w := tensor.Randn(rng, 1, 16, 16, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedConvForward(w, x, 3, 1, 1)
	}
}

// BenchmarkConv2DBatched measures one train-mode forward+backward of the
// batched im2col+GEMM convolution on the same shapes as
// BenchmarkConvForward_VGGBlock, covering all three batched GEMMs
// (forward, dW, dX).
func BenchmarkConv2DBatched(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewConv2D(rng, "c", 16, 16, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 8, 16, 16, 16)
	grad := tensor.Randn(rng, 1, 8, 16, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
		conv.Backward(grad)
	}
}

// BenchmarkConv2DStage4Backward measures the backward pass of a ResNet-18
// stage-4 convolution at quick scale (51→51 channels on 4×4 planes, batch
// 10): GEMMs with a 16-element n or k, where a kernel that is entered per
// vector spends its time on the calls.
func BenchmarkConv2DStage4Backward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewConv2D(rng, "c", 51, 51, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 10, 51, 4, 4)
	grad := tensor.Randn(rng, 1, 10, 51, 4, 4)
	conv.Forward(x, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Backward(grad)
	}
}

// BenchmarkConv2DStage1 measures one train-mode forward and backward of a
// ResNet-18 stage-1 convolution at quick scale (6→6 channels, 3×3, on
// 32×32 planes, batch 10) bound to a workspace that is reset per step, as
// a training arena runs it: the stride-1 shape whose unfold is read in
// place from the padded plane.
func BenchmarkConv2DStage1(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewConv2D(rng, "c", 6, 6, 3, 1, 1, false)
	ws := &tensor.Workspace{}
	conv.SetWorkspace(ws)
	x := tensor.Randn(rng, 1, 10, 6, 32, 32)
	grad := tensor.Randn(rng, 1, 10, 6, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		conv.Forward(x, true)
		conv.Backward(grad)
	}
}

// BenchmarkDepthwiseForward measures an unbound 3×3 depthwise forward
// (32 channels on 16×16 planes, batch 8), whose output is allocated per
// call.
func BenchmarkDepthwiseForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewDepthwiseConv2D(rng, "d", 32, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 8, 32, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

// BenchmarkDepthwiseStages measures the 3×3 depthwise layers of the
// quick-scale MobileNetV2 (batch 10) one plane shape at a time, forward
// and backward apart, on a workspace that is reset per step as a training
// arena runs them: the CIFAR-shaped model's 32×32 planes at stride 1 and
// 2, its 16×16, 8×8 and 4×4 planes at stride 1, and the Widar-shaped
// model's 10×10 planes.
func BenchmarkDepthwiseStages(b *testing.B) {
	for _, sh := range []struct{ c, hw, stride int }{
		{12, 32, 1}, {12, 32, 2}, {18, 16, 1}, {36, 8, 1}, {96, 4, 1}, {18, 10, 1},
	} {
		rng := rand.New(rand.NewSource(2))
		conv := nn.NewDepthwiseConv2D(rng, "d", sh.c, 3, sh.stride, 1, false)
		ws := &tensor.Workspace{}
		conv.SetWorkspace(ws)
		x := tensor.Randn(rng, 1, 10, sh.c, sh.hw, sh.hw)
		ohw := tensor.ConvOutSize(sh.hw, 3, sh.stride, 1)
		grad := tensor.Randn(rng, 1, 10, sh.c, ohw, ohw)
		name := fmt.Sprintf("%d@%dx%ds%d", sh.c, sh.hw, sh.hw, sh.stride)
		b.Run(name+"/fwd", func(b *testing.B) {
			ws.Reset()
			conv.Forward(x, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Reset()
				conv.Forward(x, true)
			}
		})
		b.Run(name+"/bwd", func(b *testing.B) {
			ws.Reset()
			conv.Forward(x, true)
			conv.Backward(grad)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Reset()
				conv.Backward(grad)
			}
		})
	}
}

// BenchmarkBatchNormStages measures the batch norms of the quick-scale
// MobileNetV2 (batch 10) one plane shape at a time — bare, as after a
// projection, and fused with ReLU6 — forward and backward apart, on a
// workspace that is reset per step as a training arena runs them: the
// stem's 3 channels and the 12 hidden channels of the 32×32 planes, and
// the hidden channels of the 16×16, 8×8 and 4×4 planes.
func BenchmarkBatchNormStages(b *testing.B) {
	for _, sh := range []struct{ c, hw int }{{3, 32}, {12, 32}, {18, 16}, {36, 8}, {96, 4}} {
		for _, relu6 := range []bool{false, true} {
			bn := nn.NewBatchNorm2D("bn", sh.c)
			name := fmt.Sprintf("%d@%dx%d/bare", sh.c, sh.hw, sh.hw)
			if relu6 {
				bn.Rectify(nn.NewReLU6())
				name = fmt.Sprintf("%d@%dx%d/relu6", sh.c, sh.hw, sh.hw)
			}
			ws := &tensor.Workspace{}
			bn.SetWorkspace(ws)
			rng := rand.New(rand.NewSource(2))
			x := tensor.Randn(rng, 1, 10, sh.c, sh.hw, sh.hw)
			grad := tensor.Randn(rng, 1, 10, sh.c, sh.hw, sh.hw)
			b.Run(name+"/fwd", func(b *testing.B) {
				ws.Reset()
				bn.Forward(x, true)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ws.Reset()
					bn.Forward(x, true)
				}
			})
			b.Run(name+"/bwd", func(b *testing.B) {
				ws.Reset()
				bn.Forward(x, true)
				bn.Backward(grad)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ws.Reset()
					bn.Backward(grad)
				}
			})
		}
	}
}

// BenchmarkWriterSamplerShard measures cutting one lazy client's shard
// the way a popsim run does at its first training: 20 samples over a
// third of the classes, Widar-shaped (1×20×20) and CIFAR-10-shaped
// (3×32×32). Allocations per shard are the dataset's own buffers.
func BenchmarkWriterSamplerShard(b *testing.B) {
	for _, cfg := range []data.SynthConfig{data.WidarLike(0, 0, 1), data.CIFAR10Like(0, 0, 1)} {
		ws, err := data.NewWriterSampler(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ws.Shard(int64(i), 20, cfg.Classes/3, 0.15, 0.15); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGemmTiled measures the blocked GEMM kernel at sizes that span
// one and several cache panels.
func BenchmarkGemmTiled(b *testing.B) {
	for _, size := range []int{128, 256} {
		b.Run(fmt.Sprintf("%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := tensor.Randn(rng, 1, size, size)
			y := tensor.Randn(rng, 1, size, size)
			c := tensor.New(size, size)
			b.SetBytes(int64(8 * size * size * 3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Gemm(false, false, 1, x, y, 0, c)
			}
		})
	}
}

// BenchmarkGemmSkinny measures the skinny-m/huge-n shape batched conv
// produces ([OutC, InC·K²] × [InC·K², N·OH·OW] with small OutC), where
// row-only chunking would leave every worker but one idle; the j-split
// grid is what keeps the pool busy here. m3 ends on a lone row.
func BenchmarkGemmSkinny(b *testing.B) {
	for _, m := range []int{2, 3, 8} {
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			const k, n = 72, 16384
			rng := rand.New(rand.NewSource(1))
			x := tensor.Randn(rng, 1, m, k)
			y := tensor.Randn(rng, 1, k, n)
			c := tensor.New(m, n)
			b.SetBytes(int64(8 * (m*k + k*n + m*n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Gemm(false, false, 1, x, y, 0, c)
			}
		})
	}
}

// BenchmarkGemmNT times the NT products (C = A·Bᵀ, A [m,k], B [n,k])
// training runs through Gemm, on the one dot kernel: a stride-2 3×3
// convolution's filter gradient of ResNet-18 at 16×16, 8×8 and 4×4
// output planes (k = 256, 64, 16) for output widths 13 and 51 (n = 9·inC),
// a MobileNetV2 pointwise filter gradient with three output channels, a
// Linear forward over a batch, and two lone-row shapes (odd m), whose
// last A row goes through the kernel paired with itself.
func BenchmarkGemmNT(b *testing.B) {
	for _, sh := range []struct {
		name    string
		m, k, n int
	}{
		{"s2dw_k256_o13", 13, 256, 54},
		{"s2dw_k256_o51", 51, 256, 234},
		{"s2dw_k64_o13", 13, 64, 54},
		{"s2dw_k64_o51", 51, 64, 234},
		{"s2dw_k16_o13", 13, 16, 54},
		{"s2dw_k16_o51", 51, 16, 234},
		{"pwdw_k1024_o3", 3, 1024, 12},
		{"linear_b32", 32, 64, 10},
		{"lone_m3_k256_n108", 3, 256, 108},
		{"lone_m1_k64_n64", 1, 64, 64},
	} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := tensor.Randn(rng, 1, sh.m, sh.k)
			y := tensor.Randn(rng, 1, sh.n, sh.k)
			c := tensor.New(sh.m, sh.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Gemm(false, true, 1, x, y, 1, c)
			}
		})
	}
}

// BenchmarkGemmLoneRow times per-sample NN and TN products of
// width-pruned layers whose last C row goes through the row kernel
// paired with itself (odd m): the explicit-path forward of ResNet-18's
// stride-2 3×3 convolutions at quick scale, 6→13 channels onto a 16×16
// plane and 26→51 onto 4×4 (W [outC, 9·inC] · U [9·inC, oh·ow]), a
// MobileNetV2 projection 12→3 on 32×32 (pointwise forward) and the input
// gradient of the expansion 3→18 that follows it (Wᵀ·g, TN).
func BenchmarkGemmLoneRow(b *testing.B) {
	for _, sh := range []struct {
		name    string
		transA  bool
		m, k, n int
	}{
		{"s2fwd_o13", false, 13, 54, 256},
		{"s2fwd_o51", false, 51, 234, 16},
		{"pwfwd_o3", false, 3, 12, 1024},
		{"pwdx_c3", true, 3, 18, 1024},
	} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := tensor.Randn(rng, 1, sh.m, sh.k)
			if sh.transA {
				x = tensor.Randn(rng, 1, sh.k, sh.m)
			}
			y := tensor.Randn(rng, 1, sh.k, sh.n)
			c := tensor.New(sh.m, sh.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Gemm(sh.transA, false, 1, x, y, 0, c)
			}
		})
	}
}

// BenchmarkConvPlaneLoneRow times one sample's stride-1 3×3 convolution
// read in place from its padded plane, at ResNet-18's odd quick-scale
// widths, whose last output channel goes through the row kernel paired
// with itself: the forward (ConvPlane) at 13→13 channels on 16×16 and
// 51→51 on 4×4, and the input gradient (ConvPlaneInputGrad, odd input
// channels) at 13→13 on 16×16.
func BenchmarkConvPlaneLoneRow(b *testing.B) {
	for _, sh := range []struct {
		name  string
		c, hw int
		dx    bool
	}{
		{"fwd_13@16x16", 13, 16, false},
		{"fwd_51@4x4", 51, 4, false},
		{"dx_13@16x16", 13, 16, true},
	} {
		b.Run(sh.name, func(b *testing.B) {
			const k = 3
			c, hw, p := sh.c, sh.hw, sh.hw+2
			rng := rand.New(rand.NewSource(1))
			w := tensor.Randn(rng, 1, c*c*k*k).Data
			plane := tensor.Randn(rng, 1, c*p*p).Data
			g := tensor.Randn(rng, 1, c*hw*hw).Data
			out, scratch := make([]float64, c*hw*hw), make([]float64, c*p*p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sh.dx {
					tensor.ConvPlaneInputGrad(w, g, c, c, hw, hw, k, 1, scratch, out)
				} else {
					tensor.ConvPlane(w, c, plane, c, p, p, k, out)
				}
			}
		})
	}
}

// BenchmarkLocalTrainEpoch times one local epoch of a full-width ResNet-18
// through a training arena, with its heap traffic.
func BenchmarkLocalTrainEpoch(b *testing.B) { benchLocalTrainEpoch(b, models.ResNet18) }

// BenchmarkLocalTrainEpochMobileNet is the same epoch on MobileNetV2, whose
// step is mostly depthwise convolution and fused BN→ReLU6 rather than GEMM.
func BenchmarkLocalTrainEpochMobileNet(b *testing.B) { benchLocalTrainEpoch(b, models.MobileNetV2) }

func benchLocalTrainEpoch(b *testing.B, arch models.Arch) {
	sc := benchScale()
	mcfg, err := exp.ModelConfig(arch, "cifar10", sc)
	if err != nil {
		b.Fatal(err)
	}
	global := nn.StateDict(models.MustBuild(mcfg, nil))
	dcfg, err := exp.DatasetConfig("cifar10", sc)
	if err != nil {
		b.Fatal(err)
	}
	train, _ := data.Generate(dcfg)
	ds := train.Subset(seqInts(sc.SamplesPerClient))
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainLocal(mcfg, nil, global, ds, sc.TrainConfig(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceStep times one device's side of a dispatch on the
// fanout VGG-16 (766k parameters, WidthScale 0.15, two samples, the
// shape of bench's wire_fanout): local training through an arena, then
// the upload encoded in the raw and the delta codec from the arena's
// parameters. Its heap traffic is the frame plus bookkeeping; a copy of
// the state would add 6.1 MB per op.
func BenchmarkDeviceStep(b *testing.B) {
	sc := exp.QuickScale()
	sc.SamplesPerClient, sc.WidthScale = 2, 0.15
	mcfg, err := exp.ModelConfig(models.VGG16, "cifar10", sc)
	if err != nil {
		b.Fatal(err)
	}
	global := nn.StateDict(models.MustBuild(mcfg, nil))
	dcfg, err := exp.DatasetConfig("cifar10", sc)
	if err != nil {
		b.Fatal(err)
	}
	train, _ := data.Generate(dcfg)
	shard := train.Subset(seqInts(sc.SamplesPerClient))
	for _, codec := range []wire.Codec{wire.Raw{}, wire.NewDeltaTopK()} {
		b.Run(codec.Tag(), func(b *testing.B) {
			step := core.DeviceStep{Model: mcfg, Train: sc.TrainConfig(), Codec: codec}
			req := core.TrainRequest{Client: 1, State: global, Seed: 3}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := step.Run(req, prune.Submodel{}, shard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAggregateHeterogeneous(b *testing.B) {
	cfg := models.Config{Arch: models.VGG16, NumClasses: 10, WidthScale: 0.125, Seed: 1}
	pool, err := prune.BuildPool(cfg, prune.Config{P: 3})
	if err != nil {
		b.Fatal(err)
	}
	global := nn.StateDict(models.MustBuild(cfg, nil))
	var updates []agg.Update
	for _, name := range []string{"S3", "M2", "L1"} {
		for _, m := range pool.Members {
			if m.Name() != name {
				continue
			}
			st, err := pool.ExtractState(global, m)
			if err != nil {
				b.Fatal(err)
			}
			updates = append(updates, agg.Update{State: st, Weight: 10})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Aggregate(global, updates); err != nil {
			b.Fatal(err)
		}
	}
}

func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// --- scheduler benchmarks ---

// benchSchedServer mirrors the sched test federation at bench scale, with
// an executor par wide.
func benchSchedServer(b *testing.B, n, k, par int) *core.Server {
	b.Helper()
	mcfg := models.Config{Arch: models.ResNet18, NumClasses: 4, WidthScale: 0.07, Seed: 3}
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		b.Fatal(err)
	}
	dcfg := data.SynthConfig{Name: "b", Classes: 4, Channels: 3, Size: 32,
		Train: n * 12, Test: 40, Noise: 0.3, MaxShift: 1, Seed: 11}
	train, _ := data.Generate(dcfg)
	rng := rand.New(rand.NewSource(5))
	parts := data.PartitionIID(rng, train.Len(), n)
	devices := core.NewPopulation(rng, n, [3]float64{4, 3, 3}, pool, core.DefaultDeviceModel())
	clients := make([]*core.Client, n)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: train.Subset(parts[i]), Device: devices[i]}
	}
	srv, err := core.NewServer(core.Config{
		Model: mcfg, Pool: prune.Config{P: 3}, ClientsPerRound: k,
		Train: core.TrainConfig{LocalEpochs: 1, BatchSize: 6, LR: 0.05, Momentum: 0.5},
		Seed:  41, Parallelism: par,
	}, clients)
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// benchSchedRound measures one engine aggregation (Step) per iteration,
// at Parallelism 1 and GOMAXPROCS, so the executor's speedup is read
// straight off the par1/parN ratio on a multi-core runner. The straggler
// trace keeps every client reachable (no stalls at any b.N).
func benchSchedRound(b *testing.B, policy sched.Policy) {
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			srv := benchSchedServer(b, 10, 4, par)
			sim, err := testbed.NewSim(testbed.Table5Platform())
			if err != nil {
				b.Fatal(err)
			}
			trace := &sched.RandomTrace{Seed: 7, MeanOn: 1e9, SlowProb: 0.3, SlowFactor: 3}
			eng, err := sched.New(srv, sim, trace, sched.Config{
				Policy: policy, K: 4, Extra: 2, Buffer: 2, Epochs: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSchedRound_Sync(b *testing.B)          { benchSchedRound(b, sched.Sync) }
func BenchmarkSchedRound_Deadline(b *testing.B)      { benchSchedRound(b, sched.Deadline) }
func BenchmarkSchedRound_DeadlineReuse(b *testing.B) { benchSchedRound(b, sched.DeadlineReuse) }
func BenchmarkSchedRound_Semiasync(b *testing.B)     { benchSchedRound(b, sched.SemiAsync) }
