package wire

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/persist"
	"adaptivefl/internal/tensor"
)

// randState builds a state dict with a mix of tensor ranks and scales,
// the shapes a pruned conv/linear model actually ships.
func randState(seed int64) nn.State {
	rng := rand.New(rand.NewSource(seed))
	return nn.State{
		"block1.conv.weight": tensor.Randn(rng, 0.2, 16, 3, 3, 3),
		"block1.conv.bias":   tensor.Randn(rng, 0.01, 16),
		"block2.conv.weight": tensor.Randn(rng, 0.05, 32, 16, 3, 3),
		"head.weight":        tensor.Randn(rng, 0.3, 10, 128),
		"head.bias":          tensor.Randn(rng, 1.0, 10),
		"norm.running_var":   tensor.Full(1.0, 32),
	}
}

// perturb returns a copy of st with small random deltas added — a stand-in
// for one round of local training against the dispatched reference.
func perturb(st nn.State, seed int64, scale float64) nn.State {
	rng := rand.New(rand.NewSource(seed))
	out := st.Clone()
	for _, name := range out.Names() { // name order: the draw sequence must not follow map order
		t := out[name]
		for i := range t.Data {
			t.Data[i] += scale * rng.NormFloat64()
		}
	}
	return out
}

func maxAbsDiff(a, b nn.State, t *testing.T) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("state sizes differ: %d vs %d", len(a), len(b))
	}
	worst := 0.0
	for name, av := range a {
		bv, ok := b[name]
		if !ok {
			t.Fatalf("missing tensor %q", name)
		}
		if !tensor.SameShape(av, bv) {
			t.Fatalf("%q shape %v vs %v", name, av.Shape, bv.Shape)
		}
		for i := range av.Data {
			if d := math.Abs(av.Data[i] - bv.Data[i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestRawRoundTripExact(t *testing.T) {
	st := randState(1)
	b, err := Raw{}.Encode(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Raw{}.Decode(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(st, got, t); d != 0 {
		t.Fatalf("raw round trip not exact: max diff %g", d)
	}
}

// TestF32RoundTrip checks the documented bound: every decoded value is
// exactly float64(float32(v)) — the nearest float32.
func TestF32RoundTrip(t *testing.T) {
	st := randState(2)
	b, err := F32{}.Encode(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := F32{}.Decode(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range st {
		for i, x := range v.Data {
			want := float64(float32(x))
			if got[name].Data[i] != want {
				t.Fatalf("%q[%d]: got %v want exact f32 %v", name, i, got[name].Data[i], want)
			}
		}
	}
}

// TestQ8RoundTripBound checks the documented per-tensor bound
// |err| ≤ max|v|/254 (half a quantization step).
func TestQ8RoundTripBound(t *testing.T) {
	st := randState(3)
	b, err := Q8{}.Encode(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Q8{}.Decode(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range st {
		maxAbs := 0.0
		for _, x := range v.Data {
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
			}
		}
		bound := maxAbs/254 + 1e-12
		for i, x := range v.Data {
			if d := math.Abs(got[name].Data[i] - x); d > bound {
				t.Fatalf("%q[%d]: error %g above bound %g", name, i, d, bound)
			}
		}
	}
}

// TestQ8ZeroTensor covers the scale==0 branch.
func TestQ8ZeroTensor(t *testing.T) {
	st := nn.State{"w": tensor.New(4, 4)}
	b, err := Q8{}.Encode(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Q8{}.Decode(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got["w"].Data {
		if v != 0 {
			t.Fatalf("zero tensor decoded to %v", v)
		}
	}
}

// TestDeltaTopKRoundTrip checks the documented contract: every coordinate
// decodes either to the reference value exactly (dropped) or to
// ref + float32(delta) (kept), and at least the densest Density fraction
// of each tensor is kept.
func TestDeltaTopKRoundTrip(t *testing.T) {
	ref := randState(4)
	st := perturb(ref, 5, 0.01)
	d := NewDeltaTopK()
	b, err := d.Encode(st, ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decode(b, ref)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range st {
		kept := 0
		for i, x := range v.Data {
			rv := ref[name].Data[i]
			exact := rv + float64(float32(x-rv))
			switch got[name].Data[i] {
			case rv:
				// dropped coordinate
			case exact:
				kept++
			default:
				t.Fatalf("%q[%d]: got %v, want ref %v or ref+delta %v", name, i, got[name].Data[i], rv, exact)
			}
		}
		n := len(v.Data)
		minKept := int(math.Ceil(d.Density*float64(n))) - 1 // a kept delta may be exactly 0 and look dropped
		if kept < minKept {
			t.Fatalf("%q kept %d of %d coordinates, want ≥ %d", name, kept, n, minKept)
		}
	}
}

// TestDeltaTopKNilRefDense: without a reference the codec must fall back
// to dense float32, never to zeroed weights.
func TestDeltaTopKNilRefDense(t *testing.T) {
	st := randState(6)
	d := NewDeltaTopK()
	b, err := d.Encode(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decode(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range st {
		for i, x := range v.Data {
			if got[name].Data[i] != float64(float32(x)) {
				t.Fatalf("%q[%d]: nil-ref decode %v, want dense f32 %v", name, i, got[name].Data[i], x)
			}
		}
	}
}

// TestDeltaTopKPrunedShapes: an upload pruned below the dispatched widths
// diffs against the matching prefix block of the reference.
func TestDeltaTopKPrunedShapes(t *testing.T) {
	ref := nn.State{"w": tensor.Randn(rand.New(rand.NewSource(7)), 0.3, 8, 6, 3, 3)}
	small := nn.State{"w": tensor.ExtractPrefix(ref["w"], []int{4, 3, 3, 3})}
	st := perturb(small, 8, 0.02)
	d := NewDeltaTopK()
	b, err := d.Encode(st, ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decode(b, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.SameShape(got["w"], st["w"]) {
		t.Fatalf("decoded shape %v, want %v", got["w"].Shape, st["w"].Shape)
	}
	base := tensor.ExtractPrefix(ref["w"], []int{4, 3, 3, 3})
	for i, x := range st["w"].Data {
		rv := base.Data[i]
		exact := rv + float64(float32(x-rv))
		if g := got["w"].Data[i]; g != rv && g != exact {
			t.Fatalf("[%d]: got %v, want %v or %v", i, g, rv, exact)
		}
	}
}

// TestDeltaDecodeMismatchedRef: a sparse payload without its reference
// must fail loudly, not silently reconstruct garbage.
func TestDeltaDecodeMismatchedRef(t *testing.T) {
	ref := randState(9)
	st := perturb(ref, 10, 0.01)
	d := NewDeltaTopK()
	b, err := d.Encode(st, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(b, nil); err == nil {
		t.Fatal("sparse delta decoded without its reference")
	}
}

// TestDeltaTopKKeepsLargestOverTies: threshold ties earlier in the tensor
// must not crowd out strictly larger deltas later in it — the kept set
// has to contain every delta strictly above the k-th magnitude.
func TestDeltaTopKKeepsLargestOverTies(t *testing.T) {
	ref := nn.State{"w": tensor.New(4)}
	st := nn.State{"w": tensor.FromSlice([]float64{5, 5, 5, 9}, 4)}
	d := DeltaTopK{Density: 0.5, DenseCutoff: 0.9} // k = 2 of 4
	b, err := d.Encode(st, ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Decode(b, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got["w"].Data[3] != 9 {
		t.Fatalf("largest delta dropped in favour of threshold ties: decoded %v", got["w"].Data)
	}
}

// TestKthLargestMatchesSort: the quickselect threshold must agree with a
// full sort on random data, duplicates, and edge k values.
func TestKthLargestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		a := make([]float64, n)
		for i := range a {
			a[i] = float64(rng.Intn(8)) // plenty of duplicates
		}
		k := 1 + rng.Intn(n)
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		want := sorted[n-k]
		if got := kthLargest(append([]float64(nil), a...), k); got != want {
			t.Fatalf("kthLargest(%v, %d) = %v, want %v", a, k, got, want)
		}
	}
}

// TestQ8RejectsNonFiniteState: a diverged state must fail at encode with
// the tensor named, not round-trip into garbage or a misleading decoder
// corruption error.
func TestQ8RejectsNonFiniteState(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		st := nn.State{"w": tensor.FromSlice([]float64{1, bad}, 2)}
		if _, err := (Q8{}).Encode(st, nil); err == nil {
			t.Fatalf("q8 encoded a state containing %v", bad)
		} else if !strings.Contains(err.Error(), `"w"`) {
			t.Fatalf("error should name the tensor: %v", err)
		}
	}
	// The delta codec rejects the same states on the sparse path.
	ref := nn.State{"w": tensor.New(64)}
	data := make([]float64, 64)
	data[7] = math.NaN()
	if _, err := NewDeltaTopK().Encode(nn.State{"w": tensor.FromSlice(data, 64)}, ref); err == nil {
		t.Fatal("delta encoded a NaN state")
	}
}

// TestQ8RejectsCorruptScale: a payload whose per-tensor scale is not a
// finite non-negative number must error, not decode a NaN tensor.
func TestQ8RejectsCorruptScale(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1, math.MaxFloat64 / 64} {
		b, err := encodeFrame(func(w *frameWriter) error {
			copy(w.q8("w", []int{2}, bad, 2), []byte{128, 130})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (Q8{}).Decode(b, nil); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Fatalf("scale %v: err = %v", bad, err)
		}
	}
}

// TestDeltaRejectsNonFiniteValue: a sparse delta carrying NaN/Inf must
// error with the tensor name instead of poisoning the aggregate.
func TestDeltaRejectsNonFiniteValue(t *testing.T) {
	ref := nn.State{"w": tensor.Full(1, 4)}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(-1))} {
		b, err := encodeFrame(func(w *frameWriter) error {
			at := w.sparse("w", []int{4}, 1)
			w.gap(3) // index 2
			w.setValue(at, bad)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewDeltaTopK().Decode(b, ref); err == nil || !strings.Contains(err.Error(), `"w" has non-finite value`) {
			t.Fatalf("value %v: err = %v", bad, err)
		}
	}
}

func TestByTag(t *testing.T) {
	for _, tag := range []string{TagRaw, TagF32, TagQ8, TagDelta} {
		c, err := ByTag(tag)
		if err != nil {
			t.Fatal(err)
		}
		if c.Tag() != tag {
			t.Fatalf("ByTag(%q).Tag() = %q", tag, c.Tag())
		}
	}
	if c, err := ByTag(""); err != nil || c.Tag() != TagRaw {
		t.Fatalf("empty tag should resolve to raw, got %v, %v", c, err)
	}
	if _, err := ByTag("zstd"); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

// TestEnvelopeRawIsV1 guarantees backward compatibility: a raw envelope
// is the persist v1 format, loadable by the pre-codec reader.
func TestEnvelopeRawIsV1(t *testing.T) {
	st := randState(11)
	b, err := EncodeEnvelope(Raw{}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := persist.DecodeState(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("persist v1 reader rejected a raw envelope: %v", err)
	}
	if d := maxAbsDiff(st, got, t); d != 0 {
		t.Fatalf("raw envelope via persist differs: %g", d)
	}
	// And the wire reader accepts genuine v1 bytes.
	v1, err := persist.EncodeToBytes(st)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := DecodeEnvelope(v1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(st, got2, t); d != 0 {
		t.Fatalf("v1 bytes via wire differ: %g", d)
	}
}

// TestEnvelopeV2RoundTrip covers the non-raw codecs through the persist
// v2 container, plus the v1-only reader's error message.
func TestEnvelopeV2RoundTrip(t *testing.T) {
	st := randState(12)
	for _, c := range []Codec{F32{}, Q8{}, NewDeltaTopK()} {
		b, err := EncodeEnvelope(c, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(b, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Tag(), err)
		}
		if len(got) != len(st) {
			t.Fatalf("%s: decoded %d tensors, want %d", c.Tag(), len(got), len(st))
		}
		if _, err := persist.DecodeState(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: v1-only reader accepted a v2 envelope", c.Tag())
		} else if !strings.Contains(err.Error(), "wire") {
			t.Fatalf("%s: v2 error should point at internal/wire, got: %v", c.Tag(), err)
		}
	}
}

func TestSaveLoadState(t *testing.T) {
	st := randState(13)
	for _, c := range []Codec{Raw{}, Q8{}} {
		path := t.TempDir() + "/" + c.Tag() + ".ckpt"
		if err := SaveState(path, c, st); err != nil {
			t.Fatal(err)
		}
		got, err := LoadState(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(st) {
			t.Fatalf("%s: loaded %d tensors, want %d", c.Tag(), len(got), len(st))
		}
	}
	// A v1 checkpoint written by persist.SaveState still loads.
	path := t.TempDir() + "/v1.ckpt"
	if err := persist.SaveState(path, st); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(path); err != nil {
		t.Fatalf("v1 checkpoint failed to load through wire: %v", err)
	}
}

// TestCompressionRatios pins the headline sizes: q8 beats raw by ≥4× and
// a sparse delta upload beats raw by ≥4×, on the same state.
func TestCompressionRatios(t *testing.T) {
	ref := randState(14)
	st := perturb(ref, 15, 0.01)
	rawB, err := Raw{}.Encode(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	q8B, err := Q8{}.Encode(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	deltaB, err := NewDeltaTopK().Encode(st, ref)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(rawB)) / float64(len(q8B)); ratio < 4 {
		t.Fatalf("q8 ratio %.2fx < 4x (raw %d, q8 %d bytes)", ratio, len(rawB), len(q8B))
	}
	if ratio := float64(len(rawB)) / float64(len(deltaB)); ratio < 4 {
		t.Fatalf("delta ratio %.2fx < 4x (raw %d, delta %d bytes)", ratio, len(rawB), len(deltaB))
	}
}
