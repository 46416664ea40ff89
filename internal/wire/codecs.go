package wire

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// Raw is the compatibility baseline: every value as float64, bit-exact,
// in a gzip-compressed gob of rawPayload. Peers that predate codec
// negotiation speak exactly this format, and payloads from every earlier
// build still decode.
type Raw struct{}

// rawVersion is the only rawPayload version. Earlier builds also wrote a
// version 2 that wrapped another codec's payload; it is refused.
const rawVersion = 1

// rawPayload is raw's container: the state's names in sorted order, so
// the encoding is deterministic, with each tensor's shape and values.
// Older builds encoded two more fields, which gob skips because it
// matches fields by name.
type rawPayload struct {
	Version int
	Names   []string
	Shapes  [][]int
	Data    [][]float64
}

// Tag implements Codec.
func (Raw) Tag() string { return TagRaw }

// UsesRef implements Codec.
func (Raw) UsesRef() bool { return false }

// Encode implements Codec.
func (Raw) Encode(st, _ nn.State) ([]byte, error) {
	p := rawPayload{Version: rawVersion, Names: st.Names()}
	for _, name := range p.Names {
		p.Shapes = append(p.Shapes, st[name].Shape)
		p.Data = append(p.Data, st[name].Data)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(p); err != nil {
		return nil, fmt.Errorf("wire: raw: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("wire: raw: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode implements Codec. The payload is untrusted wire data: names and
// shapes pass the frame's header validation, every tensor must hold
// exactly its shape's element count, the gzip checksum must hold, and a
// NaN or Inf that slipped in (corruption, or a diverged peer) must surface
// here, not poison the aggregate downstream.
func (Raw) Decode(data []byte, _ nn.State) (nn.State, error) {
	st, err := decodeRaw(data)
	if err != nil {
		return nil, fmt.Errorf("wire: raw: %w", err)
	}
	return st, nil
}

func decodeRaw(data []byte) (nn.State, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("gzip: %w", err)
	}
	br := bufio.NewReader(zr)
	var p rawPayload
	if err := gob.NewDecoder(br).Decode(&p); err != nil {
		return nil, fmt.Errorf("gob: %w", err)
	}
	// Reading past the gob message verifies the gzip trailer.
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("trailing data after the payload")
	} else if err != io.EOF {
		return nil, fmt.Errorf("gzip: %w", err)
	}
	if p.Version != rawVersion {
		return nil, fmt.Errorf("payload version %d, want %d", p.Version, rawVersion)
	}
	counts, err := header{names: p.Names, shapes: p.Shapes}.validate()
	if err != nil {
		return nil, err
	}
	if len(p.Data) != len(p.Names) {
		return nil, fmt.Errorf("corrupt payload (%d names, %d tensors)", len(p.Names), len(p.Data))
	}
	st := make(nn.State, len(p.Names))
	for i, name := range p.Names {
		if len(p.Data[i]) != counts[i] {
			return nil, fmt.Errorf("%q has %d values for shape %v", name, len(p.Data[i]), p.Shapes[i])
		}
		for j, v := range p.Data[i] {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("%q has non-finite value at index %d", name, j)
			}
		}
		st[name] = tensor.FromSlice(p.Data[i], p.Shapes[i]...)
	}
	return st, nil
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
			maxAbs := 0.0
			for j, v := range t.Data {
				// Inf makes the scale infinite (the decoder rejects it as
				// corruption) and NaN slips past the max (NaN compares false)
				// into an unspecified int conversion — reject both here, where
				// the error can name the diverged tensor.
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return fmt.Errorf("wire: q8 %q: non-finite value at index %d (diverged state?)", name, j)
				}
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
			scale := maxAbs / 127
			row := w.q8(name, t.Shape, scale, len(t.Data))
			if scale > 0 {
				for j, v := range t.Data {
					q := math.Round(v / scale)
					if q > 127 {
						q = 127
					} else if q < -127 {
						q = -127
					}
					row[j] = byte(int(q) + 128)
				}
			} else {
				for j := range row {
					row[j] = 128
				}
			}
		}
		return nil
	})
}

// Decode implements Codec.
func (Q8) Decode(data []byte, _ nn.State) (nn.State, error) {
	return decodeFrame(TagQ8, data, nil, 1<<kindQ8)
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
