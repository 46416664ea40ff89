package wire

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
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

// TestRawRoundTripExact: raw decodes every state to the same bits.
func TestRawRoundTripExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   nn.State
	}{
		{"mixed ranks", randState(1)},
		{"empty", nn.State{}},
	} {
		b, err := Raw{}.Encode(tc.st, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := Raw{}.Decode(b, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := maxAbsDiff(tc.st, got, t); d != 0 {
			t.Fatalf("%s: raw round trip not exact: max diff %g", tc.name, d)
		}
	}
}

// rawFixtureState is the state testdata/raw_frame.gz holds (and the
// refused pre-frame testdata/raw_v1.gz): random weights plus a tensor of
// edge-case values (signed zeros, the smallest subnormal, the most
// negative finite float64).
func rawFixtureState() nn.State {
	rng := rand.New(rand.NewSource(27))
	return nn.State{
		"conv.weight":    tensor.Randn(rng, 0.2, 4, 3, 3, 3),
		"conv.bias":      tensor.FromSlice([]float64{0, math.Copysign(0, -1), 5e-324, -math.MaxFloat64}, 4),
		"bn.running_var": tensor.Full(1, 4),
		"head.weight":    tensor.Randn(rng, 0.3, 10, 4),
	}
}

// requireSameBits fails unless got holds want's tensors with want's
// shapes and bit patterns (so -0 and 0 differ).
func requireSameBits(t *testing.T, got, want nn.State) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d tensors, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || !tensor.SameShape(g, w) {
			t.Fatalf("%q: decoded %v, want shape %v", name, g, w.Shape)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%q[%d] = %v, want %v", name, i, g.Data[i], w.Data[i])
			}
		}
	}
}

// TestRawEncodeDecodeRoundTrip: every bit pattern survives raw, signed
// zeros and subnormals included.
func TestRawEncodeDecodeRoundTrip(t *testing.T) {
	want := rawFixtureState()
	b, err := Raw{}.Encode(want, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Raw{}.Decode(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, got, want)
}

// TestRawEncodeDeterministic: equal states encode to equal bytes, however
// the map iterates (names are written sorted).
func TestRawEncodeDeterministic(t *testing.T) {
	for _, st := range []nn.State{randState(2), rawFixtureState()} {
		first, err := Raw{}.Encode(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			again, err := Raw{}.Encode(st.Clone(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, again) {
				t.Fatalf("encoding %d of %d tensors differs from the first", i+1, len(st))
			}
		}
	}
}

// TestRawFullModelCheckpoint: a model's state dict through raw restores a
// twin that computes the same outputs bit for bit.
func TestRawFullModelCheckpoint(t *testing.T) {
	cfg := models.Config{Arch: models.MobileNetV2, NumClasses: 5, WidthScale: 0.125, Seed: 4}
	m := models.MustBuild(cfg, nil)
	b, err := Raw{}.Encode(nn.StateDict(m), nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Raw{}.Decode(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	twin := models.MustBuild(models.Config{Arch: cfg.Arch, NumClasses: cfg.NumClasses, WidthScale: cfg.WidthScale, Seed: cfg.Seed + 1}, nil)
	if err := nn.LoadState(twin, back); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rand.New(rand.NewSource(5)), 1, 1, 3, 32, 32)
	ya, yb := m.Forward(x, false), twin.Forward(x, false)
	for i := range ya.Data {
		if math.Float64bits(ya.Data[i]) != math.Float64bits(yb.Data[i]) {
			t.Fatalf("restored model output[%d] = %v, want %v", i, yb.Data[i], ya.Data[i])
		}
	}
}

// TestRawDecodesOldPayload: testdata/raw_v1.gz was written by the raw
// encoder of a build that predates the frame, as gzip(gob(payload)). Raw
// no longer reads that container: it refuses the payload with the error
// every codec gives one from before the frame.
func TestRawDecodesOldPayload(t *testing.T) {
	b, err := os.ReadFile("testdata/raw_v1.gz")
	if err != nil {
		t.Fatal(err)
	}
	if first := gunzip(t, b)[0]; first == frameFormat {
		t.Fatalf("fixture opens with the frame format %#02x", first)
	}
	got, err := Raw{}.Decode(b, nil)
	if err == nil || !strings.Contains(err.Error(), "gob") || !strings.Contains(err.Error(), "upgrade agents and server together") {
		t.Fatalf("decoded %d tensors, err = %v", len(got), err)
	}
}

// TestRawDecodesFramePayload: testdata/raw_frame.gz is a kindF64 frame of
// rawFixtureState(), written by this build's raw encoder. It must decode
// to the same bits through the frame reader, not the legacy one. The test
// pins the decode, not the encoded bytes, which deflate may change between
// Go releases.
func TestRawDecodesFramePayload(t *testing.T) {
	b, err := os.ReadFile("testdata/raw_frame.gz")
	if err != nil {
		t.Fatal(err)
	}
	if first := gunzip(t, b)[0]; first != frameFormat {
		t.Fatalf("fixture opens with %#02x, not the frame format", first)
	}
	got, err := Raw{}.Decode(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, got, rawFixtureState())
}

// rawRejection is a payload the raw decoder must refuse with an error
// that mentions want.
type rawRejection struct {
	name    string
	payload []byte
	want    string
}

func requireRawRejects(t *testing.T, cases []rawRejection) {
	t.Helper()
	for _, tc := range cases {
		if _, err := (Raw{}).Decode(tc.payload, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRawDecodeGarbage: bytes that are not one intact raw frame are
// refused.
func TestRawDecodeGarbage(t *testing.T) {
	valid, err := Raw{}.Encode(nn.State{"w": tensor.Full(1, 2, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-5] ^= 1 // the gzip trailer's CRC-32
	requireRawRejects(t, []rawRejection{
		{"garbage", []byte("not a checkpoint"), "gzip"},
		{"empty", nil, "gzip"},
		{"checksum", flipped, "checksum"},
		{"trailing data", append(append([]byte(nil), valid...), valid...), "trailing"},
	})
}

// TestRawDecodeRejectsBadShapes: a raw frame whose names, shapes and
// values disagree is refused.
func TestRawDecodeRejectsBadShapes(t *testing.T) {
	four := []float64{1, 2, 3, 4}
	requireRawRejects(t, []rawRejection{
		{"too few values", handFrame(t, func(w *frameWriter) {
			w.f64("w", &tensor.Tensor{Shape: []int{2, 3}, Data: four})
		}), "frame body"},
		{"too many values", handFrame(t, func(w *frameWriter) {
			w.f64("w", &tensor.Tensor{Shape: []int{3}, Data: four})
		}), "trailing bytes"},
		{"negative dimension", handFrame(t, func(w *frameWriter) {
			w.f64("w", &tensor.Tensor{Shape: []int{-2, -2}, Data: four})
		}), "shape of w"},
		{"unsorted names", handFrame(t, func(w *frameWriter) {
			w.f64("b", tensor.Full(1, 1))
			w.f64("a", tensor.Full(2, 1))
		}), "not sorted"},
		{"missing tensor", handFrame(t, func(w *frameWriter) {
			w.f64("a", tensor.Full(1, 1))
			w.tensors++ // the header counts a second tensor it does not hold
		}), "corrupt frame header (name)"},
	})
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
