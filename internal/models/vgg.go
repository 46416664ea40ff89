package models

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/nn"
)

// vggConvWidths are the 13 convolution widths of VGG16; 'M' positions in
// the classic configuration are encoded by vggPoolAfter below.
var vggConvWidths = []int{64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512}

// vggPoolAfter marks the (0-based) conv indices followed by 2×2 max-pool.
var vggPoolAfter = map[int]bool{1: true, 3: true, 6: true, 9: true, 12: true}

// vggFCWidths are the two hidden classifier widths (the CIFAR-style VGG16
// with a 4096-4096 head that matches Table 1's 33.65M parameters).
var vggFCWidths = []int{4096, 4096}

// vggSpec exposes 15 width units: 13 convs + 2 hidden FC layers.
// Table 1 uses I ∈ {4,6,8} with τ = 4.
func vggSpec(cfg Config) Spec {
	full := make([]int, 0, 15)
	for _, w := range vggConvWidths {
		full = append(full, scaleWidth(w, cfg.WidthScale))
	}
	for _, w := range vggFCWidths {
		full = append(full, scaleWidth(w, cfg.WidthScale))
	}
	return Spec{FullWidths: full, Tau: 4, IChoices: []int{4, 6, 8}}
}

func buildVGG(rng *rand.Rand, cfg Config, spec Spec, widths []int) *Model {
	m := &Model{Cfg: cfg, Widths: append([]int(nil), widths...)}
	in := cfg.InChannels
	spatial := cfg.InputSize
	for i := 0; i < 13; i++ {
		out := widths[i]
		name := fmt.Sprintf("features.conv%d", i+1)
		m.Layers = append(m.Layers,
			nn.NewConv2D(rng, name, in, out, 3, 1, 1, false),
			nn.NewBatchNorm2D(fmt.Sprintf("features.bn%d", i+1), out).Rectify(nn.NewReLU()),
		)
		in = out
		if vggPoolAfter[i] {
			m.Layers = append(m.Layers, nn.NewMaxPool2D(2, 2))
			spatial /= 2
			m.Exits = append(m.Exits, ExitPoint{LayerIdx: len(m.Layers) - 1, Channels: out, Spatial: spatial})
		}
	}
	m.Layers = append(m.Layers, nn.NewFlatten())
	features := in * spatial * spatial
	fc1, fc2 := widths[13], widths[14]
	m.Layers = append(m.Layers,
		nn.NewLinear(rng, "classifier.fc1", features, fc1, true),
		nn.NewReLU(),
		nn.NewLinear(rng, "classifier.fc2", fc1, fc2, true),
		nn.NewReLU(),
		nn.NewLinear(rng, "classifier.fc3", fc2, cfg.NumClasses, true),
	)
	return m
}
