// Package core implements the AdaptiveFL framework itself (paper §3,
// Algorithm 1): the cloud server that prunes the global model into a pool,
// selects clients with the RL tables, dispatches submodels, lets devices
// prune adaptively to their currently available resources, and aggregates
// the returned heterogeneous submodels into a new global model.
package core

import (
	"fmt"
	"math/rand"

	"adaptivefl/internal/data"
	"adaptivefl/internal/prune"
)

// DeviceClass is the paper's three-tier device taxonomy.
type DeviceClass int

// Device classes: weak devices fit only S-level models, medium devices fit
// up to M-level, strong devices fit everything.
const (
	Weak DeviceClass = iota
	Medium
	Strong
)

// String names the class.
func (c DeviceClass) String() string {
	switch c {
	case Weak:
		return "weak"
	case Medium:
		return "medium"
	case Strong:
		return "strong"
	}
	return fmt.Sprintf("DeviceClass(%d)", int(c))
}

// DeviceModel maps device classes to capacities, expressed relative to
// pool-member sizes, plus a per-round multiplicative jitter modelling the
// paper's uncertain operating environments.
type DeviceModel struct {
	// Factors multiply the anchor size of each class (S_1 for weak, M_1
	// for medium, L_1 for strong). Values slightly above 1 mean the class
	// normally fits its anchor model but jitter can push it below,
	// triggering on-device pruning.
	WeakFactor, MediumFactor, StrongFactor float64
	// Jitter is the half-width of the uniform relative capacity noise.
	Jitter float64
}

// DefaultDeviceModel returns the configuration used across the experiment
// suite.
func DefaultDeviceModel() DeviceModel {
	return DeviceModel{WeakFactor: 1.08, MediumFactor: 1.08, StrongFactor: 1.15, Jitter: 0.10}
}

// Device is one AIoT device's resource state. Capacity is measured in
// trainable-parameter counts, the same unit as prune.Submodel.Size.
type Device struct {
	Class  DeviceClass
	Base   int64
	Jitter float64
	rng    *rand.Rand
}

// Capacity returns the device's currently available resources. Successive
// calls model the paper's dynamically changing environments.
func (d *Device) Capacity() int64 {
	if d.Jitter == 0 {
		return d.Base
	}
	f := 1 + d.Jitter*(2*d.rng.Float64()-1)
	return int64(float64(d.Base) * f)
}

// Client couples a local dataset with a device. An eager client carries
// its shard in Data. A client a LazyPopulation materialises leaves Data
// nil and cuts its shard at the first Shard call, so a client whose
// flights never train never builds one.
type Client struct {
	ID     int
	Data   *data.Dataset
	Device *Device

	samples int                           // a lazy client's spec sample count
	cut     func() (*data.Dataset, error) // a lazy client's once-only shard cut; nil on an eager client
}

// Samples returns the client's shard size. It never cuts a lazy client's
// shard: a lazy client reports its population spec's Samples.
func (c *Client) Samples() int {
	if c.cut == nil {
		return c.Data.Len()
	}
	return c.samples
}

// Shard returns the client's data shard: Data on an eager client. A lazy
// client's shard is cut at the first call, on the calling goroutine, and
// concurrent first calls cut it once.
func (c *Client) Shard() (*data.Dataset, error) {
	if c.cut == nil {
		return c.Data, nil
	}
	return c.cut()
}

// anchorSizes returns the capacity anchors (largest member per level).
func anchorSizes(pool *prune.Pool) (s, m, l int64) {
	for _, mem := range pool.Members {
		switch mem.Level {
		case prune.LevelS:
			if mem.Size > s {
				s = mem.Size
			}
		case prune.LevelM:
			if mem.Size > m {
				m = mem.Size
			}
		case prune.LevelL:
			l = mem.Size
		}
	}
	return s, m, l
}

// classBases computes the per-class base capacities a pool and device
// model imply. The class contract is "weak never fits an M model, medium
// never fits L_1". Level sizes can interleave (for ResNet/MobileNet the
// S_1 submodel outweighs M_3 because late stages dominate parameters), so
// clamp each class's base capacity below the next level's smallest member
// even at maximum positive jitter. Both the eager NewPopulation and the
// lazy generator derive capacities here, so the arithmetic stays shared.
func classBases(pool *prune.Pool, dm DeviceModel) [3]int64 {
	sAnchor, mAnchor, lAnchor := anchorSizes(pool)
	minM := lAnchor
	for _, mem := range pool.Members {
		if mem.Level == prune.LevelM && mem.Size < minM {
			minM = mem.Size
		}
	}
	clamp := func(base float64, ceiling int64) int64 {
		lim := float64(ceiling) / (1 + dm.Jitter) * 0.999
		if base > lim {
			base = lim
		}
		return int64(base)
	}
	var bases [3]int64
	bases[Weak] = clamp(float64(sAnchor)*dm.WeakFactor, minM)
	bases[Medium] = clamp(float64(mAnchor)*dm.MediumFactor, lAnchor)
	bases[Strong] = int64(float64(lAnchor) * dm.StrongFactor)
	return bases
}

// NewPopulation builds n devices with the given weak:medium:strong
// proportions (they are normalised internally; the paper's default is
// 4:3:3). Devices are assigned round-robin by cumulative share so the
// realised mix matches the requested one as closely as possible.
func NewPopulation(rng *rand.Rand, n int, proportions [3]float64, pool *prune.Pool, dm DeviceModel) []*Device {
	total := proportions[0] + proportions[1] + proportions[2]
	if total <= 0 {
		panic("core: proportions must sum to a positive value")
	}
	bases := classBases(pool, dm)
	devices := make([]*Device, n)
	acc := 0.0
	counts := [3]int{}
	for i := 0; i < n; i++ {
		// Largest-remainder style assignment keeps the mix exact.
		acc += 1.0
		var class DeviceClass
		switch {
		case float64(counts[0]) < proportions[0]/total*acc:
			class = Weak
		case float64(counts[1]) < proportions[1]/total*acc:
			class = Medium
		default:
			class = Strong
		}
		counts[class]++
		devices[i] = &Device{
			Class:  class,
			Base:   bases[class],
			Jitter: dm.Jitter,
			rng:    rand.New(rand.NewSource(rng.Int63())),
		}
	}
	// Shuffle so class does not correlate with client index (and hence
	// with data partition order).
	rng.Shuffle(n, func(i, j int) { devices[i], devices[j] = devices[j], devices[i] })
	return devices
}
