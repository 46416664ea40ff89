package wire

import (
	"testing"

	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
)

// fanoutState is the state the fan-out workloads move: VGG-16 at width
// scale 0.15 (765 946 parameters), plus a copy one round of training away
// from it for the delta uplink.
func fanoutState(tb testing.TB) (ref, st nn.State) {
	cfg := models.Config{Arch: models.VGG16, NumClasses: 10, WidthScale: 0.15, Seed: 1}
	m, err := models.Build(cfg, cfg.Spec().FullWidths)
	if err != nil {
		tb.Fatal(err)
	}
	ref = nn.StateDict(m)
	return ref, perturb(ref, 101, 0.01)
}

// benchCase is one (codec, reference) pairing a transfer actually makes.
type benchCase struct {
	name   string
	codec  Codec
	useRef bool
}

// ref is the reference the case encodes and decodes against.
func (bc benchCase) ref(full nn.State) nn.State {
	if bc.useRef {
		return full
	}
	return nil
}

// benchCases covers every codec, with the delta codec both ways: against
// a reference (the uplink) and without one (every downlink, where it
// falls back to dense float32).
func benchCases() []benchCase {
	return []benchCase{
		{"raw", Raw{}, false},
		{"f32", F32{}, false},
		{"q8", Q8{}, false},
		{"delta", NewDeltaTopK(), true},
		{"delta/noref", NewDeltaTopK(), false},
	}
}

// runCases benchmarks fn over every case, handing it the case's encoded bytes,
// and reports the payload's bytes per parameter next to the timing.
func runCases(b *testing.B, fn func(bc benchCase, st, ref nn.State, enc []byte) error) {
	fullRef, st := fanoutState(b)
	params := float64(models.ParamCount(st))
	for _, bc := range benchCases() {
		ref := bc.ref(fullRef)
		b.Run(bc.name, func(b *testing.B) {
			enc, err := bc.codec.Encode(st, ref)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fn(bc, st, ref, enc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(enc))/params, "B/param")
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	runCases(b, func(bc benchCase, st, ref nn.State, _ []byte) error {
		_, err := bc.codec.Encode(st, ref)
		return err
	})
}

func BenchmarkDecode(b *testing.B) {
	runCases(b, func(bc benchCase, _, ref nn.State, enc []byte) error {
		_, err := bc.codec.Decode(enc, ref)
		return err
	})
}

// BenchmarkArtifact times a cold artifact store's Get of the fan-out
// state, the downlink a dispatch encodes once per (snapshot, member,
// codec): the refless encode and the state a device decodes from it. The
// state stateFn hands over is copied with the timer stopped, as the
// server's extraction is a cost of its own.
func BenchmarkArtifact(b *testing.B) {
	_, st := fanoutState(b)
	for _, c := range allCodecs() {
		b.Run(c.Tag(), func(b *testing.B) {
			key := ArtifactKey{Snapshot: 1, Codec: c.Tag()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				own, s := st.Clone(), NewArtifactStore(1)
				b.StartTimer()
				if _, err := s.Get(key, c, func() (nn.State, error) { return own, nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodedSize is not a timing benchmark: it reports bytes per
// codec for one state so `go test -bench EncodedSize` doubles as a size
// table.
func BenchmarkEncodedSize(b *testing.B) {
	runCases(b, func(_ benchCase, _, _ nn.State, enc []byte) error {
		b.ReportMetric(float64(len(enc)), "bytes")
		return nil
	})
}

// TestCodecSizeBudget fails a size regression without a timing gate: the
// encoding is deterministic, so bytes per parameter at the fan-out shape
// is an exact number.
func TestCodecSizeBudget(t *testing.T) {
	fullRef, st := fanoutState(t)
	params := float64(models.ParamCount(st))
	budget := map[string]float64{"raw": 7.3, "f32": 3.6, "q8": 0.90, "delta": 0.45, "delta/noref": 3.6}
	for _, bc := range benchCases() {
		max, ok := budget[bc.name]
		if !ok {
			continue
		}
		enc, err := bc.codec.Encode(st, bc.ref(fullRef))
		if err != nil {
			t.Fatal(err)
		}
		if got := float64(len(enc)) / params; got > max {
			t.Errorf("%s: %.3f B/param, budget %.2f", bc.name, got, max)
		} else {
			t.Logf("%s: %.3f B/param (budget %.2f)", bc.name, got, max)
		}
	}
}

// TestRawNoSmallerThanCompactCodecs backs the launch-time downlink bound
// (fednet's HTTPTrainer.DownlinkBytes), which leaves the raw fallback out
// on the grounds that raw's refless encode is at least as large as every
// compact codec's. It checks that on the fan-out state and on two twins
// that favour raw most: all zeros, where deflate sees only runs, and every
// value rounded to float32, where half of raw's words are nearly constant.
func TestRawNoSmallerThanCompactCodecs(t *testing.T) {
	full, _ := fanoutState(t)
	zero, rounded := full.Clone(), full.Clone()
	for _, name := range full.Names() {
		zero[name].Zero()
		for i, v := range rounded[name].Data {
			rounded[name].Data[i] = float64(float32(v))
		}
	}
	for _, tc := range []struct {
		name string
		st   nn.State
	}{{"fan-out", full}, {"all-zero", zero}, {"float32-rounded", rounded}} {
		raw, err := Raw{}.Encode(tc.st, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []Codec{F32{}, Q8{}, NewDeltaTopK()} {
			enc, err := c.Encode(tc.st, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) < len(enc) {
				t.Errorf("%s: raw is %d bytes, smaller than %s's %d", tc.name, len(raw), c.Tag(), len(enc))
			} else {
				t.Logf("%s: raw %d ≥ %s %d bytes", tc.name, len(raw), c.Tag(), len(enc))
			}
		}
	}
}
