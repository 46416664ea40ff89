package nn

import "math"

// FNV-64a's offset basis and prime (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashState fingerprints a state dict: FNV-64a over sorted tensor names
// and raw float64 bits, so any single-bit weight divergence changes it.
// The hash content-addresses global snapshots (wire.ArtifactKey) and
// fingerprints run results; it is not cryptographic. It runs FNV-64a
// inline over each value's 8 little-endian bytes, the byte sequence
// hash/fnv would be written.
func HashState(st State) uint64 {
	h := uint64(fnvOffset64)
	for _, k := range st.Names() {
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * fnvPrime64
		}
		for _, v := range st[k].Data {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				h = (h ^ bits&0xff) * fnvPrime64
				bits >>= 8
			}
		}
	}
	return h
}
