package wire

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// allCodecs returns one instance of every shipped codec.
func allCodecs() []Codec {
	return []Codec{Raw{}, F32{}, Q8{}, NewDeltaTopK()}
}

// decodeRef builds the reference a delta decode needs; stateless codecs
// get nil, exactly as the transport passes it.
func decodeRef(c Codec, ref nn.State) nn.State {
	if c.UsesRef() {
		return ref
	}
	return nil
}

// mustNotPanic decodes under a recover barrier: whatever the payload, a
// decoder must return an error, never take the process down.
func mustNotPanic(t *testing.T, c Codec, payload []byte, ref nn.State) (nn.State, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s decode panicked: %v", c.Tag(), r)
		}
	}()
	return c.Decode(payload, decodeRef(c, ref))
}

// TestDecodersSurviveMalformedPayloads drives every codec through a
// deterministic corpus of malformed inputs — truncations, bit flips,
// junk, oversized garbage — and requires each decode to either fail with
// an error or return a fully finite state. No panics, no silent NaN.
func TestDecodersSurviveMalformedPayloads(t *testing.T) {
	ref := randState(11)
	st := perturb(ref, 12, 0.01)
	rng := rand.New(rand.NewSource(13))
	junk := make([]byte, 4096)
	rng.Read(junk)
	big := make([]byte, 1<<20)
	rng.Read(big)

	for _, c := range allCodecs() {
		valid, err := c.Encode(st, ref)
		if err != nil {
			t.Fatalf("%s encode: %v", c.Tag(), err)
		}
		corpus := [][]byte{nil, {}, junk, big, []byte("not a payload")}
		// Every truncation point of the valid payload, coarsely stepped,
		// plus the first bytes exactly (gzip header boundary).
		for cut := 0; cut < len(valid); cut += 1 + len(valid)/64 {
			corpus = append(corpus, valid[:cut])
		}
		// Deterministic single- and multi-bit flips across the payload.
		for i := 0; i < 64; i++ {
			flipped := append([]byte(nil), valid...)
			for f := 0; f <= i%4; f++ {
				h := rng.Intn(len(flipped) * 8)
				flipped[h/8] ^= 1 << (h % 8)
			}
			corpus = append(corpus, flipped)
		}
		for pi, payload := range corpus {
			dec, err := mustNotPanic(t, c, payload, ref)
			if err != nil {
				continue
			}
			for name, v := range dec {
				for j, x := range v.Data {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("%s corpus[%d]: decode accepted non-finite %q[%d] = %v",
							c.Tag(), pi, name, j, x)
					}
				}
			}
		}
	}
}

// TestDecodersRejectNonFinitePayloads crafts payloads whose bytes are
// structurally valid but carry NaN/Inf values; every decoder must refuse
// them rather than hand the poison to aggregation.
func TestDecodersRejectNonFinitePayloads(t *testing.T) {
	shape := []int{4, 3}
	mk := func(bad float64) nn.State {
		vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, bad}
		return nn.State{"w": tensor.FromSlice(vals, shape...)}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// Raw and F32 encode non-finite values without complaint, so the
		// decoder is the only line of defense.
		for _, c := range []Codec{Raw{}, F32{}} {
			payload, err := c.Encode(mk(bad), nil)
			if err != nil {
				t.Fatalf("%s encode: %v", c.Tag(), err)
			}
			if _, err := c.Decode(payload, nil); err == nil {
				t.Fatalf("%s decoded a payload carrying %v", c.Tag(), bad)
			}
		}
		// Q8 and DeltaTopK refuse at encode time — the source-side guard.
		if _, err := (Q8{}).Encode(mk(bad), nil); err == nil {
			t.Fatalf("q8 encoded a state carrying %v", bad)
		}
		ref := nn.State{"w": tensor.Full(0, shape...)}
		if _, err := NewDeltaTopK().Encode(mk(bad), ref); err == nil {
			t.Fatalf("delta encoded a state carrying %v", bad)
		}
	}
}

// TestHeaderRejectsOverflowShapes: shapes whose element product would
// overflow or exceed the wire cap must fail validation, not wrap around
// every later length check or trigger an absurd allocation.
func TestHeaderRejectsOverflowShapes(t *testing.T) {
	for _, shape := range [][]int{
		{1 << 40},
		{1 << 20, 1 << 20},
		{1 << 31, 1 << 31, 1 << 31},
		{maxWireElems + 1},
		{1 << 32, 1 << 32}, // the product wraps to 0, matching no values
	} {
		h := header{names: []string{"w"}, shapes: [][]int{shape}}
		if _, err := h.validate(); err == nil {
			t.Fatalf("shape %v passed validation", shape)
		}
		// Raw validates through the same header, so an empty tensor
		// declaring the shape is refused too.
		p := rawPayload{Version: rawVersion, Names: h.names, Shapes: h.shapes, Data: [][]float64{{}}}
		if _, err := (Raw{}).Decode(rawBytes(t, p), nil); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("raw shape %v: err = %v", shape, err)
		}
	}
	h := header{names: []string{"w"}, shapes: [][]int{{16, 3, 3, 3}}}
	if _, err := h.validate(); err != nil {
		t.Fatalf("sane shape rejected: %v", err)
	}
}

// FuzzDecoders is the go-native fuzz entry: any byte string through any
// codec must error or produce finite values, each tensor holding exactly
// its shape's element count — never panic. The seed corpus covers valid
// payloads of each codec so mutation starts from structurally interesting
// bytes. (Mutations of a whole payload rarely survive the gzip checksum;
// TestFrameRejections and TestFrameTruncatedEverywhere reach the parser
// behind it, and TestRawDecodeGarbage and TestRawDecodeRejectsBadShapes
// raw's.)
func FuzzDecoders(f *testing.F) {
	ref := randState(21)
	st := perturb(ref, 22, 0.01)
	for ci, c := range allCodecs() {
		payload, err := c.Encode(st, ref)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ci, payload)
	}
	// The refless delta payload (all tensors dense), a frame that mixes
	// dense and sparse tensors, and a payload in the gob container the
	// codecs used before the frame.
	deltaAt := len(allCodecs()) - 1
	noRef, err := NewDeltaTopK().Encode(st, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deltaAt, noRef)
	partial := nn.State{"block2.conv.weight": ref["block2.conv.weight"]}
	mixed, err := NewDeltaTopK().Encode(st, partial)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deltaAt, mixed)
	for ci := range allCodecs() {
		f.Add(ci, gobPayload(f))
	}
	// A raw payload whose shape's element count overflows to 0.
	f.Add(0, rawBytes(f, rawPayload{Version: rawVersion, Names: []string{"w"}, Shapes: [][]int{{1 << 32, 1 << 32}}, Data: [][]float64{{}}}))
	f.Fuzz(func(t *testing.T, ci int, payload []byte) {
		codecs := allCodecs()
		if ci < 0 {
			ci = -ci
		}
		c := codecs[ci%len(codecs)]
		dec, err := c.Decode(payload, decodeRef(c, ref))
		if err != nil {
			return
		}
		for name, v := range dec {
			// A float64 product cannot wrap around, and the NaN a
			// negative dimension leaves matches no length.
			n := 1.0
			for _, d := range v.Shape {
				if d < 0 {
					n = math.NaN()
				}
				n *= float64(d)
			}
			if float64(len(v.Data)) != n {
				t.Fatalf("%s: decode accepted %q with %d values for shape %v", c.Tag(), name, len(v.Data), v.Shape)
			}
			for j, x := range v.Data {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("%s: decode accepted non-finite %q[%d] = %v", c.Tag(), name, j, x)
				}
			}
		}
	})
}
