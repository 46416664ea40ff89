// Package data provides the datasets and partitioners the AdaptiveFL
// evaluation needs. The environment is offline, so CIFAR-10, CIFAR-100,
// FEMNIST and Widar are replaced by synthetic class-conditional generators
// with the same shapes, class counts and non-IID structure (see
// docs/FIDELITY.md): each class has a smooth random prototype, samples are
// noisy shifted copies, CIFAR-100-like classes share superclass structure,
// FEMNIST-like samples carry per-writer styles, and Widar-like samples
// carry per-user domain shifts.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"adaptivefl/internal/tensor"
)

// Dataset is a labelled collection of fixed-shape samples.
type Dataset struct {
	X          *tensor.Tensor // [N, C, H, W]
	Labels     []int
	NumClasses int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// SampleShape returns [C, H, W].
func (d *Dataset) SampleShape() []int { return d.X.Shape[1:] }

// Subset copies the samples at the given indices into a new dataset.
func (d *Dataset) Subset(idx []int) *Dataset {
	c, h, w := d.X.Shape[1], d.X.Shape[2], d.X.Shape[3]
	sz := c * h * w
	out := &Dataset{
		X:          tensor.New(len(idx), c, h, w),
		Labels:     make([]int, len(idx)),
		NumClasses: d.NumClasses,
	}
	for i, j := range idx {
		copy(out.X.Data[i*sz:(i+1)*sz], d.X.Data[j*sz:(j+1)*sz])
		out.Labels[i] = d.Labels[j]
	}
	return out
}

// Gather copies a batch of samples into a fresh tensor plus label slice.
func (d *Dataset) Gather(idx []int) (*tensor.Tensor, []int) {
	c, h, w := d.X.Shape[1], d.X.Shape[2], d.X.Shape[3]
	sz := c * h * w
	x := tensor.New(len(idx), c, h, w)
	labels := make([]int, len(idx))
	for i, j := range idx {
		copy(x.Data[i*sz:(i+1)*sz], d.X.Data[j*sz:(j+1)*sz])
		labels[i] = d.Labels[j]
	}
	return x, labels
}

// Batches returns shuffled index batches covering the dataset once. The
// final batch may be smaller than batchSize.
func (d *Dataset) Batches(rng *rand.Rand, batchSize int) [][]int {
	idx := rng.Perm(d.Len())
	var out [][]int
	for lo := 0; lo < len(idx); lo += batchSize {
		hi := lo + batchSize
		if hi > len(idx) {
			hi = len(idx)
		}
		out = append(out, idx[lo:hi])
	}
	return out
}

// ClassCounts returns per-class sample counts.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, l := range d.Labels {
		counts[l]++
	}
	return counts
}

// PartitionIID splits n sample indices into near-equal random shards, one
// per client.
func PartitionIID(rng *rand.Rand, n, clients int) [][]int {
	perm := rng.Perm(n)
	out := make([][]int, clients)
	for i, j := range perm {
		c := i % clients
		out[c] = append(out[c], j)
	}
	return out
}

// PartitionDirichlet splits samples across clients with per-class
// proportions drawn from Dir(alpha) — the paper's non-IID protocol. Lower
// alpha means more skew. Clients left empty receive one random sample so
// every client can participate.
func PartitionDirichlet(rng *rand.Rand, labels []int, numClasses, clients int, alpha float64) [][]int {
	if alpha <= 0 {
		panic(fmt.Sprintf("data: Dirichlet alpha must be positive, got %v", alpha))
	}
	byClass := make([][]int, numClasses)
	for i, l := range labels {
		byClass[l] = append(byClass[l], i)
	}
	out := make([][]int, clients)
	for _, idx := range byClass {
		if len(idx) == 0 {
			continue
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		props := dirichlet(rng, alpha, clients)
		// Convert proportions to cumulative cut points.
		lo := 0
		acc := 0.0
		for c := 0; c < clients; c++ {
			acc += props[c]
			hi := int(acc*float64(len(idx)) + 0.5)
			if c == clients-1 {
				hi = len(idx)
			}
			if hi > len(idx) {
				hi = len(idx)
			}
			if hi > lo {
				out[c] = append(out[c], idx[lo:hi]...)
			}
			lo = hi
		}
	}
	for c := range out {
		if len(out[c]) == 0 {
			out[c] = append(out[c], rng.Intn(len(labels)))
		}
	}
	return out
}

// dirichlet draws one sample from Dir(alpha, …, alpha) via Gamma draws.
func dirichlet(rng *rand.Rand, alpha float64, k int) []float64 {
	v := make([]float64, k)
	sum := 0.0
	for i := range v {
		v[i] = gammaDraw(rng, alpha)
		sum += v[i]
	}
	if sum == 0 {
		for i := range v {
			v[i] = 1 / float64(k)
		}
		return v
	}
	for i := range v {
		v[i] /= sum
	}
	return v
}

// gammaDraw samples Gamma(shape, 1) with the Marsaglia–Tsang method,
// boosting shape < 1 via the standard power transform.
func gammaDraw(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / (3 * math.Sqrt(d))
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
