package nn

import (
	"math"

	"adaptivefl/internal/tensor"
)

// Softmax writes row-wise softmax of logits [N,K] into a new tensor.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	return softmaxInto(tensor.New(logits.Shape...), logits)
}

func softmaxInto(out, logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Shape[0], logits.Shape[1]
	for s := 0; s < n; s++ {
		row := logits.Data[s*k : (s+1)*k]
		max := math.Inf(-1)
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		o := out.Data[s*k : (s+1)*k]
		for i, v := range row {
			e := math.Exp(v - max)
			o[i] = e
			sum += e
		}
		for i := range o {
			o[i] /= sum
		}
	}
	return out
}

// CrossEntropy computes mean softmax cross-entropy of logits [N,K] against
// integer labels, returning the loss and dLoss/dLogits (already divided by
// the batch size, ready to feed Backward).
func CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return CrossEntropyIn(nil, logits, labels)
}

// CrossEntropyIn is CrossEntropy with the gradient taken from ws: a
// per-step tensor like a layer's, valid until ws is next Reset.
func CrossEntropyIn(ws *tensor.Workspace, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := logits.Shape[0], logits.Shape[1]
	grad := softmaxInto(ws.Alloc(n, k), logits) // the probabilities, until the labels are subtracted
	loss := 0.0
	invN := 1 / float64(n)
	for s := 0; s < n; s++ {
		p := grad.Data[s*k+labels[s]]
		loss -= math.Log(math.Max(p, 1e-12))
		grad.Data[s*k+labels[s]] -= 1
	}
	grad.Scale(invN)
	return loss * invN, grad
}

// DistillKL computes T²·KL(softmax(teacher/T) ‖ softmax(student/T)) — the
// self-distillation loss ScaleFL uses between exits — and its gradient
// with respect to the student logits (mean over the batch). The teacher is
// treated as a constant.
func DistillKL(student, teacher *tensor.Tensor, temp float64) (float64, *tensor.Tensor) {
	n, k := student.Shape[0], student.Shape[1]
	sScaled := student.Clone()
	sScaled.Scale(1 / temp)
	tScaled := teacher.Clone()
	tScaled.Scale(1 / temp)
	ps := Softmax(sScaled)
	pt := Softmax(tScaled)
	grad := tensor.New(n, k)
	loss := 0.0
	invN := 1 / float64(n)
	for s := 0; s < n; s++ {
		for i := 0; i < k; i++ {
			q := pt.Data[s*k+i]
			p := ps.Data[s*k+i]
			if q > 0 {
				loss += q * math.Log(q/math.Max(p, 1e-12))
			}
			// d/d(student logit) of T²·KL = T · (p - q); the T² and the
			// 1/T from the chain rule leave a single factor of T.
			grad.Data[s*k+i] = temp * (p - q) * invN
		}
	}
	return loss * temp * temp * invN, grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Shape[0], logits.Shape[1]
	if n == 0 {
		return 0
	}
	correct := 0
	for s := 0; s < n; s++ {
		row := logits.Data[s*k : (s+1)*k]
		best, bi := math.Inf(-1), 0
		for i, v := range row {
			if v > best {
				best, bi = v, i
			}
		}
		if bi == labels[s] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
