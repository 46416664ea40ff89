package models

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// mobilenetGroup describes a run of inverted-residual blocks that share an
// output channel count (MobileNetV2's bottleneck table rows).
type mobilenetGroup struct {
	out    int // full output channels
	blocks int
	stride int // stride of the first block
	expand int // expansion factor t
}

// mobilenetGroups is the MobileNetV2 bottleneck configuration adapted to
// 32×32 inputs (the first two strides are 1, as in common CIFAR ports).
var mobilenetGroups = []mobilenetGroup{
	{out: 16, blocks: 1, stride: 1, expand: 1},
	{out: 24, blocks: 2, stride: 1, expand: 6},
	{out: 32, blocks: 3, stride: 2, expand: 6},
	{out: 64, blocks: 4, stride: 2, expand: 6},
	{out: 96, blocks: 3, stride: 1, expand: 6},
	{out: 160, blocks: 3, stride: 2, expand: 6},
	{out: 320, blocks: 1, stride: 1, expand: 6},
}

const (
	mobilenetStem     = 32
	mobilenetLastConv = 1280
)

// mobilenetSpec exposes 9 width units: stem, the 7 block groups, and the
// final 1×1 conv. Residual connections only occur inside a group, so
// pruning boundaries between groups keep every submodel a prefix slice.
// I ∈ {3,5,7} with τ = 3.
func mobilenetSpec(cfg Config) Spec {
	full := make([]int, 0, 9)
	full = append(full, scaleWidth(mobilenetStem, cfg.WidthScale))
	for _, g := range mobilenetGroups {
		full = append(full, scaleWidth(g.out, cfg.WidthScale))
	}
	full = append(full, scaleWidth(mobilenetLastConv, cfg.WidthScale))
	return Spec{FullWidths: full, Tau: 3, IChoices: []int{3, 5, 7}}
}

// invertedResidual is MobileNetV2's block: 1×1 expansion (skipped when
// t == 1), 3×3 depthwise, 1×1 linear projection, with a residual add when
// stride is 1 and input and output widths agree (decided structurally, so
// full and pruned models have identical topology). The ReLU6 after the
// expansion and the depthwise convolution is fused into their batch norms.
type invertedResidual struct {
	expand   *nn.Conv2D // nil when t == 1
	expandBN *nn.BatchNorm2D
	dw       *nn.DepthwiseConv2D
	dwBN     *nn.BatchNorm2D
	project  *nn.Conv2D
	projBN   *nn.BatchNorm2D
	residual bool
}

func newInvertedResidual(rng *rand.Rand, name string, in, out, stride, expand int, residual bool) *invertedResidual {
	hidden := in * expand
	b := &invertedResidual{residual: residual}
	if expand != 1 {
		b.expand = nn.NewConv2D(rng, name+".expand", in, hidden, 1, 1, 0, false)
		b.expandBN = nn.NewBatchNorm2D(name+".expandbn", hidden).Rectify(nn.NewReLU6())
	}
	b.dw = nn.NewDepthwiseConv2D(rng, name+".dw", hidden, 3, stride, 1, false)
	b.dwBN = nn.NewBatchNorm2D(name+".dwbn", hidden).Rectify(nn.NewReLU6())
	b.project = nn.NewConv2D(rng, name+".project", hidden, out, 1, 1, 0, false)
	b.projBN = nn.NewBatchNorm2D(name+".projbn", out)
	return b
}

func (b *invertedResidual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x
	if b.expand != nil {
		y = b.expand.Forward(y, train)
		y = b.expandBN.Forward(y, train)
	}
	y = b.dw.Forward(y, train)
	y = b.dwBN.Forward(y, train)
	y = b.project.Forward(y, train)
	y = b.projBN.Forward(y, train)
	if b.residual {
		y.AddInPlace(x)
	}
	return y
}

func (b *invertedResidual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := b.projBN.Backward(grad)
	g = b.project.Backward(g)
	g = b.dwBN.Backward(g)
	g = b.dw.Backward(g)
	if b.expand != nil {
		g = b.expandBN.Backward(g)
		g = b.expand.Backward(g)
	}
	if b.residual {
		// g is the gradient a layer of this block just produced, so no
		// one else holds it: the shortcut's share is added in place.
		g.AddInPlace(grad)
	}
	return g
}

func (b *invertedResidual) SetWorkspace(ws *tensor.Workspace) {
	ls := []nn.Layer{b.dw, b.dwBN, b.project, b.projBN}
	if b.expand != nil {
		ls = append(ls, b.expand, b.expandBN)
	}
	for _, l := range ls {
		nn.SetWorkspace(l, ws)
	}
}

func (b *invertedResidual) Params() []*nn.Param {
	var ps []*nn.Param
	if b.expand != nil {
		ps = append(ps, b.expand.Params()...)
		ps = append(ps, b.expandBN.Params()...)
	}
	ps = append(ps, b.dw.Params()...)
	ps = append(ps, b.dwBN.Params()...)
	ps = append(ps, b.project.Params()...)
	ps = append(ps, b.projBN.Params()...)
	return ps
}

// countMACs implements the stats walker interface.
func (b *invertedResidual) countMACs(spatial int) (int64, int) {
	var macs int64
	sz := spatial
	if b.expand != nil {
		m, s := convMACs(b.expand, sz)
		macs, sz = macs+m, s
	}
	mdw, sz2 := depthwiseMACs(b.dw, sz)
	macs += mdw
	mp, sz3 := convMACs(b.project, sz2)
	macs += mp
	return macs, sz3
}

func buildMobileNet(rng *rand.Rand, cfg Config, spec Spec, widths []int) *Model {
	m := &Model{Cfg: cfg, Widths: append([]int(nil), widths...)}
	stemW := widths[0]
	m.Layers = append(m.Layers,
		nn.NewConv2D(rng, "stem.conv", cfg.InChannels, stemW, 3, 1, 1, false),
		nn.NewBatchNorm2D("stem.bn", stemW).Rectify(nn.NewReLU6()),
	)
	spatial := cfg.InputSize
	in := stemW
	for gi, g := range mobilenetGroups {
		out := widths[gi+1]
		for bi := 0; bi < g.blocks; bi++ {
			stride := 1
			if bi == 0 {
				stride = g.stride
			}
			// Residual when stride 1 and in==out, which with group-tied
			// widths holds exactly for non-first blocks of a group.
			residual := stride == 1 && bi > 0
			name := fmt.Sprintf("group%d.block%d", gi+1, bi+1)
			m.Layers = append(m.Layers, newInvertedResidual(rng, name, in, out, stride, g.expand, residual))
			if stride == 2 {
				spatial = tensor.ConvOutSize(spatial, 3, 2, 1)
			}
			in = out
		}
		m.Exits = append(m.Exits, ExitPoint{LayerIdx: len(m.Layers) - 1, Channels: in, Spatial: spatial})
	}
	lastW := widths[8]
	m.Layers = append(m.Layers,
		nn.NewConv2D(rng, "head.conv", in, lastW, 1, 1, 0, false),
		nn.NewBatchNorm2D("head.bn", lastW).Rectify(nn.NewReLU6()),
		nn.NewGlobalAvgPool2D(),
		nn.NewFlatten(),
		nn.NewLinear(rng, "classifier.fc", lastW, cfg.NumClasses, true),
	)
	return m
}
