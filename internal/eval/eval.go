// Package eval provides the measurement utilities behind the paper's
// tables and figures: test-set accuracy, per-level submodel accuracy
// ("avg" vs "full" in Table 2), learning-curve recording, and the
// communication-waste rate of Figure 5.
package eval

import (
	"fmt"
	"sort"

	"adaptivefl/internal/data"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// workspaces recycles the step workspaces of Accuracy calls: the heads of
// one Evaluate run back to back and share a slab.
var workspaces = tensor.FreeList[*tensor.Workspace]{New: func() *tensor.Workspace { return &tensor.Workspace{} }}

// Accuracy evaluates a model on a dataset in evaluation mode, batching to
// bound memory. It returns the top-1 accuracy in [0, 1]. For the length
// of the call the model's activations live in a workspace reset per
// batch; on return the model is unbound again and pins no batch buffers.
func Accuracy(model nn.Layer, ds *data.Dataset, batchSize int) float64 {
	if ds.Len() == 0 {
		return 0
	}
	if batchSize < 1 {
		batchSize = 64
	}
	ws := workspaces.Get()
	nn.SetWorkspace(model, ws)
	defer func() {
		nn.SetWorkspace(model, nil)
		ws.Reset()
		workspaces.Put(ws)
	}()
	correct := 0
	idx := make([]int, 0, batchSize)
	for lo := 0; lo < ds.Len(); lo += batchSize {
		ws.Reset()
		idx = idx[:0]
		for i := lo; i < min(lo+batchSize, ds.Len()); i++ {
			idx = append(idx, i)
		}
		x, labels := ds.Gather(idx)
		logits := model.Forward(x, false)
		correct += int(nn.Accuracy(logits, labels)*float64(len(labels)) + 0.5)
	}
	return float64(correct) / float64(ds.Len())
}

// Point is one learning-curve sample: accuracy per series at a round.
type Point struct {
	Round int
	Acc   map[string]float64
}

// Curve accumulates learning-curve points.
type Curve struct {
	Points []Point
}

// Add appends a point.
func (c *Curve) Add(round int, acc map[string]float64) {
	c.Points = append(c.Points, Point{Round: round, Acc: acc})
}

// Series returns the (round, value) sequence for one named series.
func (c *Curve) Series(name string) (rounds []int, values []float64) {
	for _, p := range c.Points {
		if v, ok := p.Acc[name]; ok {
			rounds = append(rounds, p.Round)
			values = append(values, v)
		}
	}
	return rounds, values
}

// Final returns the last recorded value of a series (0 if absent).
func (c *Curve) Final(name string) float64 {
	for i := len(c.Points) - 1; i >= 0; i-- {
		if v, ok := c.Points[i].Acc[name]; ok {
			return v
		}
	}
	return 0
}

// CSV renders the curve with one column per series, for plotting.
func (c *Curve) CSV() string {
	names := map[string]bool{}
	for _, p := range c.Points {
		for k := range p.Acc {
			names[k] = true
		}
	}
	cols := make([]string, 0, len(names))
	for k := range names {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	out := "round"
	for _, k := range cols {
		out += "," + k
	}
	out += "\n"
	for _, p := range c.Points {
		out += fmt.Sprintf("%d", p.Round)
		for _, k := range cols {
			if v, ok := p.Acc[k]; ok {
				out += fmt.Sprintf(",%.4f", v)
			} else {
				out += ","
			}
		}
		out += "\n"
	}
	return out
}

// MeanOf averages the named entries of acc, skipping absent ones.
func MeanOf(acc map[string]float64, names ...string) float64 {
	sum, n := 0.0, 0
	for _, name := range names {
		if v, ok := acc[name]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
