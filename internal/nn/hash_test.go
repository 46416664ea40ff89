package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"adaptivefl/internal/tensor"
)

// refHashState is HashState as a hash/fnv writer: each sorted name's
// bytes, then each value's 8 little-endian bytes, one Write per value.
func refHashState(st State) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range st.Names() {
		h.Write([]byte(k))
		for _, v := range st[k].Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestHashStateMatchesFNV pins the inline FNV-64a against hash/fnv on the
// values whose bits a float comparison would blur: NaNs with distinct
// payloads, −0, ±Inf, subnormals, and empty tensors and states.
func TestHashStateMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	odd := []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
		math.Float64frombits(0xfff4000000000abc), // negative signalling NaN
		math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64,
	}
	random := make([]float64, 1000)
	for i := range random {
		random[i] = rng.NormFloat64()
	}
	cases := map[string]State{
		"nil":   nil,
		"empty": {},
		"odd":   {"b.odd": tensor.FromSlice(odd, len(odd))},
		"mixed": {
			"a.empty": tensor.New(0),
			"conv.w":  tensor.FromSlice(random, 10, 10, 10),
			"z":       tensor.FromSlice(odd[:3], 3),
			"":        tensor.FromSlice([]float64{-0.5}, 1),
		},
	}
	for name, st := range cases {
		if got, want := HashState(st), refHashState(st); got != want {
			t.Errorf("%s: HashState %#x, hash/fnv %#x", name, got, want)
		}
	}
	a := State{"w": tensor.FromSlice([]float64{0}, 1)}
	b := State{"w": tensor.FromSlice([]float64{math.Copysign(0, -1)}, 1)}
	if HashState(a) == HashState(b) {
		t.Error("+0 and −0 hash alike")
	}
}

// BenchmarkHashState hashes a 766k-value state, the size of wire_fanout's
// VGG-16 global.
func BenchmarkHashState(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 766_000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	st := State{"w": tensor.FromSlice(vals, len(vals))}
	b.SetBytes(int64(8 * len(vals)))
	for i := 0; i < b.N; i++ {
		HashState(st)
	}
}
