package wire

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

func artKey(snap uint64, member int, tag string) ArtifactKey {
	return ArtifactKey{Snapshot: snap, Member: member, Codec: tag}
}

// The store's bytes must be exactly what a direct refless encode of the
// same state produces — the pinning that keeps artifact-served runs
// bit-identical to per-client-encode runs.
func TestArtifactBytesMatchDirectEncode(t *testing.T) {
	st := randState(7)
	for _, tag := range []string{TagRaw, TagF32, TagQ8, TagDelta} {
		c, err := ByTag(tag)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := c.Encode(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := NewArtifactStore(0)
		art, err := s.Get(artKey(1, 0, tag), c, func() (nn.State, error) { return st, nil })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(art.Bytes, direct) {
			t.Fatalf("%s: artifact bytes diverge from direct encode", tag)
		}
		// State is the decoded round-trip — what a device would decode —
		// not the pre-encode input (they differ under lossy codecs).
		roundTrip, err := c.Decode(direct, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nn.HashState(art.State) != nn.HashState(roundTrip) {
			t.Fatalf("%s: artifact state diverges from decoded round-trip", tag)
		}
	}
}

// Each key encodes exactly once no matter how many concurrent dispatch
// workers ask for it.
func TestArtifactEncodeOnce(t *testing.T) {
	st := randState(8)
	c, _ := ByTag(TagQ8)
	s := NewArtifactStore(0)
	var calls int
	var mu sync.Mutex
	stateFn := func() (nn.State, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return st, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Get(artKey(42, 1, TagQ8), c, stateFn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("state extracted %d times, want 1", calls)
	}
	if s.Encodes() != 1 {
		t.Fatalf("Encodes() = %d, want 1", s.Encodes())
	}
	if s.Hits() != 15 {
		t.Fatalf("Hits() = %d, want 15", s.Hits())
	}
}

// Distinct (snapshot, member, codec) keys are distinct artifacts and
// distinct ETags.
func TestArtifactKeysAndETagsDistinct(t *testing.T) {
	keys := []ArtifactKey{
		{Snapshot: 1, Member: 0, Codec: TagQ8},
		{Snapshot: 2, Member: 0, Codec: TagQ8},
		{Snapshot: 1, Member: 1, Codec: TagQ8},
		{Snapshot: 1, Member: 0, Codec: TagDelta},
	}
	seen := map[string]bool{}
	for _, k := range keys {
		et := k.ETag()
		if seen[et] {
			t.Fatalf("duplicate ETag %s", et)
		}
		seen[et] = true
	}
}

func TestArtifactStoreEviction(t *testing.T) {
	st := randState(9)
	c, _ := ByTag(TagF32)
	s := NewArtifactStore(2)
	// get reports whether the Get of snap encoded, that is, missed.
	get := func(snap uint64) bool {
		before := s.Encodes()
		if _, err := s.Get(artKey(snap, 0, TagF32), c, func() (nn.State, error) { return st, nil }); err != nil {
			t.Fatal(err)
		}
		return s.Encodes() > before
	}
	get(1)
	get(2)
	get(3) // evicts 1
	if s.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", s.Len())
	}
	if !get(1) { // re-encode after eviction; evicts 2, the LRU victim
		t.Fatal("evicted artifact still resident")
	}
	if get(3) {
		t.Fatal("recently used artifact evicted")
	}
	if !get(2) {
		t.Fatal("LRU victim still resident")
	}
	if s.Encodes() != 5 {
		t.Fatalf("Encodes() = %d, want 5", s.Encodes())
	}
}

// A failed stateFn or encode leaves no poisoned entry: callers that were
// waiting on it share the error, and the next Get of the key starts over.
func TestArtifactStateFnError(t *testing.T) {
	c, _ := ByTag(TagRaw)
	s := NewArtifactStore(0)
	wantErr := fmt.Errorf("extract failed")
	_, err := s.Get(artKey(1, 0, TagRaw), c, func() (nn.State, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if s.Len() != 0 || s.Encodes() != 0 {
		t.Fatal("failed encode left residue")
	}

	// A second caller that reaches Get while the failing call is inside
	// stateFn either queues behind the failing entry (and shares wantErr)
	// or arrives after it was dropped (and encodes for itself). It must
	// not hang, and must not get a nil artifact without an error.
	inside, calling := make(chan struct{}), make(chan struct{})
	type result struct {
		art *Artifact
		err error
	}
	second := make(chan result, 1)
	go func() {
		<-inside
		close(calling)
		art, err := s.Get(artKey(1, 0, TagRaw), c, func() (nn.State, error) { return randState(10), nil })
		second <- result{art, err}
	}()
	_, err = s.Get(artKey(1, 0, TagRaw), c, func() (nn.State, error) {
		close(inside)
		<-calling
		return nil, wantErr
	})
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if r := <-second; (r.err == nil) == (r.art == nil) || (r.err != nil && r.err != wantErr) {
		t.Fatalf("second caller: art = %v, err = %v", r.art, r.err)
	}

	// An encode failure (Q8 refuses NaN) is dropped the same way.
	q8, _ := ByTag(TagQ8)
	bad := nn.State{"w": tensor.FromSlice([]float64{1, math.NaN()}, 2)}
	if _, err := s.Get(artKey(2, 0, TagQ8), q8, func() (nn.State, error) { return bad, nil }); err == nil {
		t.Fatal("NaN state encoded")
	}
	before := s.Encodes()
	art, err := s.Get(artKey(2, 0, TagQ8), q8, func() (nn.State, error) { return randState(10), nil })
	if err != nil || art == nil || len(art.Bytes) == 0 {
		t.Fatalf("retry after failure: art = %v, err = %v", art, err)
	}
	if s.Encodes() != before+1 {
		t.Fatal("failed encode is resident: the retry did not encode")
	}
}

// Misses on different keys must not serialise: both callers are inside
// their stateFn at the same time, and the counters stay readable meanwhile.
func TestArtifactDistinctKeysEncodeConcurrently(t *testing.T) {
	st := randState(11)
	c, _ := ByTag(TagF32)
	s := NewArtifactStore(0)
	var inside sync.WaitGroup
	inside.Add(2)
	both := make(chan struct{})
	go func() { inside.Wait(); close(both) }()
	var wg sync.WaitGroup
	for member := 0; member < 2; member++ {
		member := member
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Get(artKey(7, member, TagF32), c, func() (nn.State, error) {
				inside.Done()
				select {
				case <-both:
					_ = s.Hits() + s.Encodes() + int64(s.Len()) // must not block on a pending encode
					return st, nil
				case <-time.After(10 * time.Second):
					return nil, fmt.Errorf("member %d: the other key never entered stateFn", member)
				}
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s.Encodes() != 2 || s.Len() != 2 {
		t.Fatalf("Encodes() = %d, Len() = %d, want 2, 2", s.Encodes(), s.Len())
	}
}

// encoderSide is what the artifact store serves for st: its refless
// encode, then the shipped codec's round trip in place, on a copy.
func encoderSide(c Codec, st nn.State) (nn.State, error) {
	own := st.Clone()
	if _, err := c.Encode(own, nil); err != nil {
		return nil, err
	}
	if err := registry[c.Tag()].roundTrip(own); err != nil {
		return nil, err
	}
	return own, nil
}

// decoderSide is what a device decodes from st's refless encode.
func decoderSide(c Codec, st nn.State) (nn.State, error) {
	b, err := c.Encode(st, nil)
	if err != nil {
		return nil, err
	}
	return c.Decode(b, nil)
}

// roundTripMismatch describes how the encoder-side state of st differs
// from the decoder-side one under c, bit for bit and error for error, or
// returns "" when they agree.
func roundTripMismatch(c Codec, st nn.State) string {
	got, gotErr := encoderSide(c, st)
	want, wantErr := decoderSide(c, st)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("round trip err = %v, Decode err = %v", gotErr, wantErr)
		}
		return ""
	}
	if len(got) != len(want) {
		return fmt.Sprintf("round trip has %d tensors, Decode %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil || !tensor.SameShape(g, w) {
			return fmt.Sprintf("%q: round trip %v, Decode shape %v", name, g, w.Shape)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				return fmt.Sprintf("%q[%d]: round trip %v (%#016x), Decode %v (%#016x)",
					name, i, g.Data[i], math.Float64bits(g.Data[i]), w.Data[i], math.Float64bits(w.Data[i]))
			}
		}
	}
	return ""
}

// roundTripCodecs is every shipped codec, delta at two densities: refless,
// both must go dense.
func roundTripCodecs() []Codec {
	return append(allCodecs(), DeltaTopK{Density: 0.6, DenseCutoff: 0.9})
}

// roundTripEdgeStates are the values where a round trip computed beside
// the decoder could drift from it, one case each.
func roundTripEdgeStates() map[string]nn.State {
	negZero := math.Copysign(0, -1)
	vec := func(vals ...float64) *tensor.Tensor { return tensor.FromSlice(vals, len(vals)) }
	nanPayload := math.Float64frombits(0x7ff0000000000001) // signalling, not the canonical NaN
	return map[string]nn.State{
		"empty state":  {},
		"empty tensor": {"a": tensor.New(0, 4), "b": vec()},
		"negative zero": {
			"w": vec(negZero, 0, negZero, 1),
			"z": vec(negZero, negZero),
		},
		// q8 rounds these to level −0; Decode's level is an int, so +0.
		"q8 small negatives": {"w": vec(1, -1e-5, -0.003, -0.0039, negZero, 0.002)},
		"subnormals": {
			"w": vec(5e-324, -5e-324, 1e-310, -2.2e-308, 1e-45, -7e-46, 1.4e-45),
		},
		"q8 subnormal scale": {"tiny": vec(1e-321, -3e-322, 5e-324), "zero scale": vec(5e-324, -5e-324)},
		"float32 overflow":   {"a": vec(1, 2), "b": vec(0.5, 1e300, -1e300)},
		"float32 max":        {"w": vec(math.MaxFloat32, -math.MaxFloat32, 3.4028235677973366e38)},
		"nan":                {"w": vec(1, math.NaN())},
		"nan payload":        {"w": vec(nanPayload, 2), "x": vec(-math.Float64frombits(0x7ff8dead00000000))},
		"inf":                {"a": vec(math.Inf(1)), "b": vec(1, math.Inf(-1))},
		"errors in name order": {
			"a": vec(1, 1e300), "b": vec(math.Inf(1)), "c": vec(math.NaN()),
		},
		"q8 scale limit": {"ok": vec(0.99*math.MaxFloat64, 1), "over": vec(-0.995 * math.MaxFloat64)},
		"q8 max float":   {"w": vec(math.MaxFloat64, -math.MaxFloat64, 1)},
		"q8 below limit": {"w": vec(0.99*math.MaxFloat64, -0.5*math.MaxFloat64, 3)},
		"mixed ranks":    randState(31),
	}
}

// TestRoundTripMatchesDecode: the state the artifact store computes from
// the encoder's side is, for every shipped codec, Decode(Encode(x, nil),
// nil) bit for bit, and fails with Decode's error where Decode fails — on
// the fan-out VGG-16 and on every value that could make the two drift.
func TestRoundTripMatchesDecode(t *testing.T) {
	states := roundTripEdgeStates()
	_, states["fan-out"] = fanoutState(t)
	for name, st := range states {
		for _, c := range roundTripCodecs() {
			if msg := roundTripMismatch(c, st); msg != "" {
				t.Errorf("%s, %s: %s", name, c.Tag(), msg)
			}
		}
	}
}

// noDecode is a codec the store must never decode with.
type noDecode struct {
	Codec
	t *testing.T
}

func (c noDecode) Decode([]byte, nn.State) (nn.State, error) {
	c.t.Errorf("%s: the artifact store decoded", c.Tag())
	return nil, fmt.Errorf("no decode")
}

// TestArtifactStateIsTheGivenState: the store decodes nothing and keeps no
// second state: the artifact's State is the map stateFn returned, its
// tensors the same tensors, rounded in place to what Bytes decode to.
func TestArtifactStateIsTheGivenState(t *testing.T) {
	for _, c := range roundTripCodecs() {
		st := randState(32)
		tensors := map[string]*tensor.Tensor{}
		for name, ten := range st {
			tensors[name] = ten
		}
		s := NewArtifactStore(0)
		art, err := s.Get(artKey(1, 0, c.Tag()), noDecode{c, t}, func() (nn.State, error) { return st, nil })
		if err != nil {
			t.Fatal(err)
		}
		for name, ten := range tensors {
			if art.State[name] != ten {
				t.Fatalf("%s: %q is a second tensor, not the one stateFn returned", c.Tag(), name)
			}
		}
		want, err := c.Decode(art.Bytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nn.HashState(art.State) != nn.HashState(want) {
			t.Fatalf("%s: artifact State differs from Decode of its bytes", c.Tag())
		}
	}
}

// unshipped is a codec whose tag no shipped codec has.
type unshipped struct{ Raw }

func (unshipped) Tag() string { return "custom" }

// TestArtifactRefusesUnshippedCodec: the store round-trips through the
// shipped codec of the tag, so a tag without one is an error, raised
// before stateFn extracts anything.
func TestArtifactRefusesUnshippedCodec(t *testing.T) {
	s := NewArtifactStore(0)
	_, err := s.Get(artKey(1, 0, "custom"), unshipped{}, func() (nn.State, error) {
		t.Error("stateFn called for a codec the store cannot round-trip")
		return randState(33), nil
	})
	if err == nil || !strings.Contains(err.Error(), `"custom"`) {
		t.Fatalf("err = %v", err)
	}
	if s.Len() != 0 || s.Encodes() != 0 {
		t.Fatal("refused codec left residue")
	}
}
