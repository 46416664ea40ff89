package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// gz wraps inflated bytes in a gzip member. The default level is
// deliberate: a decoder must accept any deflate stream, not only the
// Huffman-only ones the encoder writes.
func gz(t testing.TB, inflated []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(inflated); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gunzip(t testing.TB, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// handFrame builds a frame from writer primitives, so a test can put
// anything in any section.
func handFrame(t testing.TB, fill func(w *frameWriter)) []byte {
	t.Helper()
	b, err := encodeFrame(func(w *frameWriter) error { fill(w); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// gobPayload is a payload in the container the codecs used before the
// frame: gzip(gob(struct{header, [][]float32})).
func gobPayload(t testing.TB) []byte {
	t.Helper()
	type oldHeader struct {
		Names  []string
		Shapes [][]int
	}
	type oldF32 struct {
		Head oldHeader
		Data [][]float32
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	p := oldF32{Head: oldHeader{Names: []string{"w"}, Shapes: [][]int{{2}}}, Data: [][]float32{{1, 2}}}
	if err := gob.NewEncoder(zw).Encode(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameRejections hands each decoder frames that are well-formed gzip
// but break one rule of the frame, and requires the matching error.
func TestFrameRejections(t *testing.T) {
	ref := nn.State{"w": tensor.Full(1, 8)}
	delta := NewDeltaTopK()
	// sparseW is a frame whose one sparse tensor "w" (8 elements) keeps
	// len(gaps) values at the given index gaps.
	sparseW := func(kept int, gaps ...int) []byte {
		return handFrame(t, func(w *frameWriter) {
			at := w.sparse("w", []int{8}, kept)
			for _, g := range gaps {
				w.gap(g)
			}
			for k := 0; k < kept; k++ {
				w.setValue(at+k, 0.5)
			}
		})
	}
	// f64W is a frame holding "w" as one kindF64 tensor of vals.
	f64W := func(vals ...float64) []byte {
		return handFrame(t, func(w *frameWriter) { w.f64("w", tensor.FromSlice(vals, len(vals))) })
	}
	denseW := handFrame(t, func(w *frameWriter) { w.dense("w", tensor.Full(1, 2)) })
	q8W := handFrame(t, func(w *frameWriter) { copy(w.q8("w", []int{2}, 1, 2), []byte{128, 129}) })
	// reframe applies edit to the inflated bytes of a valid delta frame.
	reframe := func(edit func(b []byte) []byte) []byte {
		return gz(t, edit(gunzip(t, sparseW(2, 1, 3))))
	}

	cases := []struct {
		name    string
		codec   Codec
		payload []byte
		ref     nn.State
		want    string
	}{
		{"valid", delta, sparseW(2, 1, 3), ref, ""},
		{"valid at the last index", delta, sparseW(2, 1, 7), ref, ""},
		{"zero gap", delta, sparseW(2, 1, 0), ref, "index gap 0"},
		{"gap past the end", delta, sparseW(2, 1, 8), ref, "index gap 8"},
		{"first gap past the end", delta, sparseW(1, 9), ref, "index gap 9"},
		{"kept > n", delta, sparseW(9, 1, 1, 1, 1, 1, 1, 1, 1, 1), ref, "keeps 9 of 8"},
		{"fewer gaps than kept", delta, sparseW(2, 1), ref, "index section ends"},
		{"more gaps than kept", delta, sparseW(2, 1, 1, 1), ref, "no tensor uses"},
		{"sparse without reference", delta, sparseW(2, 1, 3), nil, "reference state has no matching tensor"},
		{"sparse to a codec without sparse", F32{}, sparseW(2, 1, 3), nil, "tensor kind 2"},
		{"q8 to f32", F32{}, q8W, nil, "tensor kind 1"},
		{"valid f64", Raw{}, f64W(1, -2), nil, ""},
		{"f64 NaN", Raw{}, f64W(1, 2, math.NaN()), nil, `"w" has non-finite value at index 2`},
		{"f64 +Inf", Raw{}, f64W(math.Inf(1), 0), nil, `"w" has non-finite value at index 0`},
		{"f64 -Inf", Raw{}, f64W(0, math.Inf(-1)), nil, `"w" has non-finite value at index 1`},
		{"dense to raw", Raw{}, denseW, nil, "tensor kind 0"},
		{"q8 to raw", Raw{}, q8W, nil, "tensor kind 1"},
		{"sparse to raw", Raw{}, sparseW(2, 1, 3), ref, "tensor kind 2"},
		{"f64 to f32", F32{}, f64W(1), nil, "tensor kind 3"},
		{"f64 to q8", Q8{}, f64W(1), nil, "tensor kind 3"},
		{"f64 to delta", delta, f64W(1), ref, "tensor kind 3"},
		{"unknown kind", F32{}, handFrame(t, func(w *frameWriter) { w.entry("w", []int{0}, 9) }), nil, "tensor kind 9"},
		{"names not sorted", F32{}, handFrame(t, func(w *frameWriter) {
			w.dense("b", tensor.New(1))
			w.dense("a", tensor.New(1))
		}), nil, "not sorted"},
		{"trailing byte inside the stream", delta, reframe(func(b []byte) []byte { return append(b, 0) }), ref, "trailing bytes"},
		{"trailing bytes after the gzip member", delta, append(sparseW(2, 1, 3), "junk"...), ref, "frame end"},
		{"second gzip member", delta, append(sparseW(2, 1, 3), sparseW(2, 1, 3)...), ref, "trailing bytes"},
		{"header bytes after the last tensor", delta, reframe(func(b []byte) []byte {
			// Grow the declared header by one byte: the parser meets the first
			// gap byte where it expects the header to end.
			b[1]++
			return b
		}), ref, "after the last tensor"},
		{"header length over the cap", delta, reframe(func(b []byte) []byte {
			b[1], b[2], b[3], b[4] = 1, 0, 0x10, 0 // 2²⁰+1
			return b
		}), ref, "frame header of 1048577 bytes"},
		{"tensor count past the header", delta, reframe(func(b []byte) []byte {
			b[5] = 0x7f
			return b
		}), ref, "tensor count"},
		{"not gzip", Q8{}, []byte("not a payload"), nil, "gzip"},
	}
	for _, tc := range cases {
		_, err := tc.codec.Decode(tc.payload, tc.ref)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: decoded, want an error containing %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// TestFrameTruncatedEverywhere cuts the inflated stream of a frame with
// every section populated at every length — every section boundary
// included — and re-wraps it in a valid gzip member, so only the
// exact-length rule can catch it.
func TestFrameTruncatedEverywhere(t *testing.T) {
	ref := nn.State{"s": tensor.Full(1, 8)}
	frames := map[string][]byte{
		"delta": handFrame(t, func(w *frameWriter) {
			w.dense("d", tensor.FromSlice([]float64{1, 2, 3}, 3))
			at := w.sparse("s", []int{8}, 2)
			w.gap(2)
			w.gap(5)
			w.setValue(at, 0.25)
			w.setValue(at+1, -0.25)
		}),
		"q8":  handFrame(t, func(w *frameWriter) { copy(w.q8("w", []int{3}, 0.5, 3), []byte{1, 128, 255}) }),
		"raw": handFrame(t, func(w *frameWriter) { w.f64("w", tensor.FromSlice([]float64{1, -0.5, 3e300}, 3)) }),
	}
	for tag, frame := range frames {
		c, err := ByTag(tag)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode(frame, ref); err != nil {
			t.Fatalf("%s: the untruncated frame must decode: %v", tag, err)
		}
		inflated := gunzip(t, frame)
		for cut := 0; cut < len(inflated); cut++ {
			if _, err := c.Decode(gz(t, inflated[:cut]), ref); err == nil {
				t.Errorf("%s: decoded with %d of %d inflated bytes", tag, cut, len(inflated))
			}
		}
	}
}

// TestFrameHugeDeclarationFailsBeforeAllocation: a few dozen payload bytes
// declaring a 2²⁸-element tensor must be refused from the header alone —
// neither the 1 GiB inflate buffer nor the 2 GiB tensor may be allocated.
func TestFrameHugeDeclarationFailsBeforeAllocation(t *testing.T) {
	ref := nn.State{"w": &tensor.Tensor{Shape: []int{1 << 14, 1 << 14}}} // shape only: a same-shape reference block is never read here
	payloads := map[string][]byte{
		"f32": handFrame(t, func(w *frameWriter) { w.entry("w", []int{maxWireElems}, kindDense) }),
		"raw": handFrame(t, func(w *frameWriter) { w.entry("w", []int{maxWireElems}, kindF64) }),
		"q8": handFrame(t, func(w *frameWriter) {
			w.entry("w", []int{maxWireElems}, kindQ8)
			w.head = append(w.head, make([]byte, 8)...)
		}),
		"delta": handFrame(t, func(w *frameWriter) {
			w.entry("w", []int{1 << 14, 1 << 14}, kindSparse)
			w.head = append(w.head, 0x80, 0x80, 0x80, 0x40)
		}), // kept = 2²⁷
	}
	for tag, payload := range payloads {
		c, err := ByTag(tag)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = c.Decode(payload, ref)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "can inflate to") {
			t.Errorf("%s: err = %v, want the inflate bound", tag, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing a %d-byte payload allocated %d bytes", tag, len(payload), grew)
		}
	}
}

// TestEncodeIgnoresPoolHistory: the bytes are a pure function of
// (state, ref) — whatever a pooled writer encoded before, and however many
// encodes run at once.
func TestEncodeIgnoresPoolHistory(t *testing.T) {
	ref := randState(31)
	st := perturb(ref, 32, 0.01)
	small := nn.State{"a": tensor.FromSlice([]float64{1, -2, 3}, 3)}
	for _, c := range allCodecs() {
		want, err := c.Encode(st, ref)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					// Dirty the pooled buffers with a different shape and codec.
					for _, other := range allCodecs() {
						if _, err := other.Encode(small, small); err != nil {
							t.Error(err)
						}
					}
					got, err := c.Encode(st, ref)
					if err != nil {
						t.Error(err)
					} else if !bytes.Equal(got, want) {
						t.Errorf("%s: bytes differ between encodes of the same (state, ref)", c.Tag())
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestCodecValuesClosedForm pins what each codec decodes to, computed here
// from the codec's definition — not from a round trip — so the semantics
// outlive the container they were first written in.
func TestCodecValuesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	coarse := func(n int) []float64 { // few distinct magnitudes: plenty of threshold ties
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(9)-4) / 8
		}
		return vals
	}
	st := nn.State{
		"edge":   tensor.FromSlice([]float64{0, math.Copysign(0, -1), 1e-40, -3e38, 0.1, -1.0 / 3, 127.5, 5e-324}, 2, 4),
		"ties":   tensor.FromSlice(coarse(60), 6, 10),
		"random": tensor.Randn(rng, 0.3, 5, 7, 3),
		"empty":  tensor.New(0, 4),
		"zeros":  tensor.New(3),
	}
	same := func(t *testing.T, name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%q: %d values, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%q[%d] = %v (%#x), want %v (%#x)", name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	decode := func(t *testing.T, c Codec, st, ref nn.State) nn.State {
		t.Helper()
		b, err := c.Encode(st, ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(b, ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(st) {
			t.Fatalf("decoded %d tensors, want %d", len(got), len(st))
		}
		for name, v := range st {
			if !tensor.SameShape(got[name], v) {
				t.Fatalf("%q: shape %v, want %v", name, got[name].Shape, v.Shape)
			}
		}
		return got
	}

	t.Run("raw", func(t *testing.T) {
		exact := st.Clone() // plus float64 extremes
		exact["extremes"] = tensor.FromSlice([]float64{-math.MaxFloat64, math.MaxFloat64, -5e-324, math.Copysign(0, -1)}, 4)
		got := decode(t, Raw{}, exact, nil)
		for name, v := range exact {
			same(t, name, got[name].Data, v.Data)
		}
	})

	t.Run("f32", func(t *testing.T) {
		got := decode(t, F32{}, st, nil)
		for name, v := range st {
			want := make([]float64, len(v.Data))
			for i, x := range v.Data {
				want[i] = float64(float32(x))
			}
			same(t, name, got[name].Data, want)
		}
	})

	t.Run("q8", func(t *testing.T) {
		got := decode(t, Q8{}, st, nil)
		for name, v := range st {
			maxAbs := 0.0
			for _, x := range v.Data {
				maxAbs = math.Max(maxAbs, math.Abs(x))
			}
			scale := maxAbs / 127
			want := make([]float64, len(v.Data))
			for i, x := range v.Data {
				if scale > 0 {
					level := int(math.Max(-127, math.Min(127, math.Round(x/scale))))
					want[i] = float64(level) * scale
				}
			}
			same(t, name, got[name].Data, want)
		}
	})

	// wantDelta is the delta codec's definition: keep the k = ⌈density·n⌉
	// largest |st−ref| — larger magnitude first, lower index among equals —
	// as ref + float32(st−ref); every other coordinate is ref exactly. A
	// tensor with no reference block, no elements, or k ≥ cutoff·n is dense
	// float32 instead.
	wantDelta := func(d DeltaTopK, v, base *tensor.Tensor) []float64 {
		n := len(v.Data)
		k := int(math.Ceil(d.Density * float64(n)))
		want := make([]float64, n)
		if n == 0 || base == nil || float64(k) >= d.DenseCutoff*float64(n) {
			for i, x := range v.Data {
				want[i] = float64(float32(x))
			}
			return want
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return math.Abs(v.Data[order[a]]-base.Data[order[a]]) > math.Abs(v.Data[order[b]]-base.Data[order[b]])
		})
		copy(want, base.Data)
		for _, i := range order[:k] {
			want[i] = base.Data[i] + float64(float32(v.Data[i]-base.Data[i]))
		}
		return want
	}

	t.Run("delta", func(t *testing.T) {
		ref := nn.State{ // no "random": that tensor has no reference and goes dense
			"edge":  tensor.Full(0.5, 2, 4),
			"ties":  tensor.FromSlice(coarse(60), 6, 10),
			"empty": tensor.New(0, 4),
			"zeros": tensor.New(3),
		}
		for _, d := range []DeltaTopK{NewDeltaTopK(), {Density: 0.3, DenseCutoff: 0.5}, {Density: 0.5, DenseCutoff: 0.9}, {Density: 0.6, DenseCutoff: 0.5}} {
			got := decode(t, d, st, ref)
			for name, v := range st {
				same(t, name, got[name].Data, wantDelta(d, v, ref[name]))
			}
		}
	})

	t.Run("delta pruned below the reference", func(t *testing.T) {
		d := DeltaTopK{Density: 0.25, DenseCutoff: 0.5}
		ref := nn.State{"w": tensor.Randn(rng, 0.3, 8, 6, 3, 3)}
		shape := []int{4, 3, 3, 3}
		base := tensor.ExtractPrefix(ref["w"], shape)
		up := perturb(nn.State{"w": base}, 42, 0.02)
		got := decode(t, d, up, ref)
		same(t, "w", got["w"].Data, wantDelta(d, up["w"], base))
	})
}

// TestGobPayloadNamesTheMismatch: a payload from a build that predates the
// frame must fail on the format byte with an error that says so.
func TestGobPayloadNamesTheMismatch(t *testing.T) {
	old := gobPayload(t)
	if first := gunzip(t, old)[0]; first >= 0x80 && first < 0xF8 {
		t.Fatalf("gob stream opens with %#02x: frameFormat's range is no longer gob-proof", first)
	}
	for _, c := range allCodecs() {
		_, err := c.Decode(old, nil)
		if err == nil || !strings.Contains(err.Error(), "gob") || !strings.Contains(err.Error(), "upgrade agents and server together") {
			t.Fatalf("%s: err = %v", c.Tag(), err)
		}
	}
}
