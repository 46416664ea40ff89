// Package models provides the three network families the AdaptiveFL paper
// evaluates — VGG16, ResNet18 and MobileNetV2 — built width-scalably: a
// model is constructed from a per-unit width vector, so the same
// constructor yields the full global model and every pruned submodel.
// Parameter names are stable across widths, and every pruned parameter
// tensor is a prefix block of its full-width counterpart, which is the
// invariant AdaptiveFL's dispatch and aggregation rely on.
package models

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// Arch names a supported network family.
type Arch string

// Supported architectures.
const (
	VGG16       Arch = "vgg16"
	ResNet18    Arch = "resnet18"
	MobileNetV2 Arch = "mobilenetv2"
)

// Config describes a model instantiation. WidthScale < 1 shrinks every
// base width proportionally — the whole paper pipeline runs unchanged at
// reduced scale, which is how the experiment harness fits on a CPU.
type Config struct {
	Arch       Arch
	NumClasses int
	InChannels int
	InputSize  int     // square input resolution
	WidthScale float64 // 1.0 = paper-size widths
	Seed       int64
}

// Validate fills defaults and rejects impossible configurations.
func (c *Config) Validate() error {
	if c.WidthScale == 0 {
		c.WidthScale = 1
	}
	if c.InChannels == 0 {
		c.InChannels = 3
	}
	if c.InputSize == 0 {
		c.InputSize = 32
	}
	if c.NumClasses <= 0 {
		return fmt.Errorf("models: NumClasses must be positive, got %d", c.NumClasses)
	}
	switch c.Arch {
	case VGG16:
		if c.InputSize < 32 {
			return fmt.Errorf("models: VGG16 needs InputSize >= 32, got %d", c.InputSize)
		}
	case ResNet18, MobileNetV2:
		if c.InputSize < 8 {
			return fmt.Errorf("models: %s needs InputSize >= 8, got %d", c.Arch, c.InputSize)
		}
	default:
		return fmt.Errorf("models: unknown arch %q", c.Arch)
	}
	return nil
}

// Spec describes an architecture's prunable width units for the pruning
// machinery: the full width of each unit, the minimum starting layer τ,
// and the I values used to build the model pool (ascending, so the last
// entry yields the largest submodel of a level).
type Spec struct {
	FullWidths []int
	Tau        int
	IChoices   []int
}

// Spec returns the width-unit description for the configured architecture.
func (c Config) Spec() Spec {
	cfg := c
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	switch cfg.Arch {
	case VGG16:
		return vggSpec(cfg)
	case ResNet18:
		return resnetSpec(cfg)
	case MobileNetV2:
		return mobilenetSpec(cfg)
	}
	panic("unreachable")
}

// ExitPoint marks a location where an early-exit classifier can attach
// (used by the ScaleFL baseline): the output of Layers[LayerIdx], its
// channel count and spatial size.
type ExitPoint struct {
	LayerIdx int
	Channels int
	Spatial  int
}

// Model is a constructed network: an ordered layer chain (features then
// classifier) plus the width vector it was built from. Model implements
// nn.Layer.
type Model struct {
	Cfg    Config
	Widths []int
	Layers []nn.Layer
	Exits  []ExitPoint
}

// Forward runs the full chain.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the chain in reverse.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad = m.Layers[i].Backward(grad)
	}
	return grad
}

// SetWorkspace binds every layer of the chain to ws (see nn.SetWorkspace).
func (m *Model) SetWorkspace(ws *tensor.Workspace) {
	for _, l := range m.Layers {
		nn.SetWorkspace(l, ws)
	}
}

// Params concatenates all layer parameters.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

var _ nn.Layer = (*Model)(nil)

// Build constructs a model with the given per-unit widths. Passing nil
// widths builds the full model (widths = Spec().FullWidths).
func Build(cfg Config, widths []int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.Spec()
	if widths == nil {
		widths = spec.FullWidths
	}
	if len(widths) != len(spec.FullWidths) {
		return nil, fmt.Errorf("models: %s expects %d width units, got %d", cfg.Arch, len(spec.FullWidths), len(widths))
	}
	for i, w := range widths {
		if w < 1 || w > spec.FullWidths[i] {
			return nil, fmt.Errorf("models: width[%d]=%d outside [1,%d]", i, w, spec.FullWidths[i])
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch cfg.Arch {
	case VGG16:
		return buildVGG(rng, cfg, spec, widths), nil
	case ResNet18:
		return buildResNet(rng, cfg, spec, widths), nil
	case MobileNetV2:
		return buildMobileNet(rng, cfg, spec, widths), nil
	}
	panic("unreachable")
}

// MustBuild is Build that panics on error, for tests and examples.
func MustBuild(cfg Config, widths []int) *Model {
	m, err := Build(cfg, widths)
	if err != nil {
		panic(err)
	}
	return m
}

// scaleWidth applies the global WidthScale to a base channel count,
// keeping at least one channel.
func scaleWidth(base int, scale float64) int {
	w := int(float64(base)*scale + 0.5)
	if w < 1 {
		w = 1
	}
	return w
}
