package wire

import (
	"fmt"
	"math"

	"adaptivefl/internal/nn"
)

// Raw is the compatibility baseline: every value as float64, bit-exact,
// in a frame of kindF64 tensors.
type Raw struct{}

// Tag implements Codec.
func (Raw) Tag() string { return TagRaw }

// UsesRef implements Codec.
func (Raw) UsesRef() bool { return false }

// Encode implements Codec.
func (Raw) Encode(st, _ nn.State) ([]byte, error) {
	return encodeFrame(func(w *frameWriter) error {
		for _, name := range st.Names() {
			w.f64(name, st[name])
		}
		return nil
	})
}

// Decode implements Codec. A frame may hold only kindF64 tensors, and
// every value must be finite.
func (Raw) Decode(data []byte, _ nn.State) (nn.State, error) {
	return decodeFrame(TagRaw, data, nil, 1<<kindF64)
}

// roundTrip implements builtin: raw keeps every value and refuses the
// non-finite ones Decode refuses.
func (Raw) roundTrip(st nn.State) error {
	return eachTensor(TagRaw, st, func(name string, d []float64) error {
		for j, v := range d {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nonFinite(name, j)
			}
		}
		return nil
	})
}

// eachTensor runs fn on the values of st's tensors in name order, the
// order Decode reads them in, stopping at the first error, which it
// prefixes as decodeFrame does.
func eachTensor(tag string, st nn.State, fn func(name string, d []float64) error) error {
	for _, name := range st.Names() {
		if err := fn(name, st[name].Data); err != nil {
			return fmt.Errorf("wire: %s: %w", tag, err)
		}
	}
	return nil
}

// roundF32 rounds every value of st to float32 in place, as a dense frame
// carries it, refusing the values that round to Inf or NaN.
func roundF32(tag string, st nn.State) error {
	return eachTensor(tag, st, func(name string, d []float64) error {
		for j, v := range d {
			f := float32(v)
			if math.IsInf(float64(f), 0) || math.IsNaN(float64(f)) {
				return nonFinite(name, j)
			}
			d[j] = float64(f)
		}
		return nil
	})
}

// F32 truncates every value to float32. Error per value is half a
// float32 ulp: |err| ≤ |v|·2⁻²⁴.
type F32 struct{}

// Tag implements Codec.
func (F32) Tag() string { return TagF32 }

// UsesRef implements Codec.
func (F32) UsesRef() bool { return false }

// Encode implements Codec.
func (F32) Encode(st, _ nn.State) ([]byte, error) {
	return encodeFrame(func(w *frameWriter) error {
		for _, name := range st.Names() {
			w.dense(name, st[name])
		}
		return nil
	})
}

// Decode implements Codec.
func (F32) Decode(data []byte, _ nn.State) (nn.State, error) {
	return decodeFrame(TagF32, data, nil, 1<<kindDense)
}

// roundTrip implements builtin.
func (F32) roundTrip(st nn.State) error { return roundF32(TagF32, st) }

// Q8 applies per-tensor symmetric int8 quantization: each tensor stores
// one float64 scale (max|v|/127) and one byte per value. Error per value
// is half a quantization step: |err| ≤ max|v|/254 over the tensor.
type Q8 struct{}

// Tag implements Codec.
func (Q8) Tag() string { return TagQ8 }

// UsesRef implements Codec.
func (Q8) UsesRef() bool { return false }

// Encode implements Codec. A level travels as the signed level biased by
// +128, one byte per value.
func (Q8) Encode(st, _ nn.State) ([]byte, error) {
	return encodeFrame(func(w *frameWriter) error {
		for _, name := range st.Names() {
			t := st[name]
			scale, err := q8Scale(name, t.Data)
			if err != nil {
				return err
			}
			row := w.q8(name, t.Shape, scale, len(t.Data))
			for j, v := range t.Data {
				row[j] = byte(q8Level(v, scale) + 128)
			}
		}
		return nil
	})
}

// q8Scale returns a tensor's quantization step, max|v|/127.
func q8Scale(name string, d []float64) (float64, error) {
	maxAbs := 0.0
	for j, v := range d {
		// Inf makes the scale infinite (the decoder rejects it as
		// corruption) and NaN slips past the max (NaN compares false)
		// into an unspecified int conversion — reject both here, where
		// the error can name the diverged tensor.
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return 0, fmt.Errorf("wire: q8 %q: non-finite value at index %d (diverged state?)", name, j)
		}
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs / 127, nil
}

// q8Level returns the signed level, in [-127, 127], that v quantizes to at
// scale; a zero scale quantizes every value to level 0.
func q8Level(v, scale float64) int {
	if scale <= 0 {
		return 0
	}
	q := math.Round(v / scale)
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int(q)
}

// Decode implements Codec.
func (Q8) Decode(data []byte, _ nn.State) (nn.State, error) {
	return decodeFrame(TagQ8, data, nil, 1<<kindQ8)
}

// roundTrip implements builtin: each value becomes its level times the
// scale, the product Decode forms. The level goes through int first, as
// it does on the wire, so a small negative value comes back +0, not the
// −0 that math.Round leaves.
func (Q8) roundTrip(st nn.State) error {
	return eachTensor(TagQ8, st, func(name string, d []float64) error {
		scale, err := q8Scale(name, d)
		if err != nil {
			return err
		}
		if !q8ScaleValid(scale) {
			return corruptScale(name, scale)
		}
		for j, v := range d {
			d[j] = float64(q8Level(v, scale)) * scale
		}
		return nil
	})
}

// DeltaTopK encodes the k largest-magnitude changes of each tensor versus
// the reference state, as (index, float32 value) pairs; the remaining
// coordinates decode to the reference value exactly. Kept coordinates are
// exact to float32 rounding of the delta. When a tensor has no usable
// reference — or keeping Density of it would not beat dense float32 — the
// tensor falls back to dense float32 values (so a nil ref degrades to F32,
// never to zeroed weights).
//
// References are matched width-wise: an uploaded tensor pruned below the
// dispatched shape diffs against the same prefix block that seeded it.
type DeltaTopK struct {
	// Density is the kept fraction per tensor, in (0,1].
	Density float64
	// DenseCutoff switches a tensor to dense float32 when the kept
	// fraction reaches it: a kept coordinate pays an index gap on top of
	// its value and a sparse tensor still needs its reference, so little
	// is left to gain past ~0.5.
	DenseCutoff float64
}

// NewDeltaTopK returns the registered default: keep the top 10% of each
// tensor's delta, falling back to dense beyond 50% density.
func NewDeltaTopK() DeltaTopK { return DeltaTopK{Density: 0.10, DenseCutoff: 0.5} }

// kthLargest returns the k-th largest value of a (1 ≤ k ≤ len(a)) by
// iterative quickselect, mutating a (the caller passes scratch). The
// selected *value* is unique for given inputs, so the encoding stays
// deterministic even though the partition order is not. O(n) expected —
// a full sort here would dominate the encode of large tensors.
func kthLargest(a []float64, k int) float64 {
	target := len(a) - k // index in ascending order
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median-of-three pivot guards the sorted/reversed worst cases.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			return a[target]
		}
	}
	return a[target]
}

// Tag implements Codec.
func (DeltaTopK) Tag() string { return TagDelta }

// UsesRef implements Codec.
func (DeltaTopK) UsesRef() bool { return true }

// Encode implements Codec.
func (d DeltaTopK) Encode(st, ref nn.State) ([]byte, error) {
	density := d.Density
	if density <= 0 || density > 1 {
		return nil, fmt.Errorf("wire: delta density %v outside (0,1]", density)
	}
	cutoff := d.DenseCutoff
	if cutoff <= 0 {
		cutoff = 0.5
	}
	return encodeFrame(func(w *frameWriter) error {
		for _, name := range st.Names() {
			t := st[name]
			base := refBlock(ref, name, t.Shape)
			n := len(t.Data)
			k := int(math.Ceil(density * float64(n)))
			if n == 0 || base == nil || float64(k) >= cutoff*float64(n) {
				w.dense(name, t)
				continue
			}
			mags := w.scratch(n)
			for j, v := range t.Data {
				d := v - base.Data[j]
				// NaN magnitudes poison the threshold sort (every comparison
				// is false), silently dropping valid deltas — reject here.
				if math.IsNaN(d) {
					return fmt.Errorf("wire: delta %q: NaN delta at index %d (diverged state?)", name, j)
				}
				mags[j] = math.Abs(d)
			}
			thresh := kthLargest(mags, k)
			// Everything strictly above the k-th magnitude is kept (at most
			// k-1 entries); the remaining slots go to threshold ties in index
			// order — a >=-scan capped at k could exhaust the budget on early
			// ties and drop strictly larger deltas later in the tensor.
			// kthLargest permuted mags, which does not change the count.
			ties := k
			for _, m := range mags {
				if m > thresh {
					ties--
				}
			}
			at, prev := w.sparse(name, t.Shape, k), -1
			for j, v := range t.Data {
				d := v - base.Data[j]
				if m := math.Abs(d); m < thresh {
					continue
				} else if m == thresh {
					if ties == 0 {
						continue
					}
					ties--
				}
				f := float32(d)
				// Inf here is either an infinite delta or a float32 overflow
				// of a huge finite one; the decoder rejects both, so fail at
				// the source with a clearer error.
				if math.IsInf(float64(f), 0) {
					return fmt.Errorf("wire: delta %q: delta at index %d overflows float32 (diverged state?)", name, j)
				}
				w.gap(j - prev)
				prev = j
				w.setValue(at, f)
				at++
			}
		}
		return nil
	})
}

// Decode implements Codec.
func (d DeltaTopK) Decode(data []byte, ref nn.State) (nn.State, error) {
	return decodeFrame(TagDelta, data, ref, 1<<kindDense|1<<kindSparse)
}

// roundTrip implements builtin. Without a reference every tensor travels
// dense, as in f32.
func (DeltaTopK) roundTrip(st nn.State) error { return roundF32(TagDelta, st) }
