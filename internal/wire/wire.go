// Package wire compresses model state dicts for the FL transport path.
// AdaptiveFL's Pi-class devices are uplink-bound, so the bytes a round
// moves matter as much as the MACs it burns: a Codec turns an nn.State
// into wire bytes and back, trading accuracy for size along a documented
// error bound. Four codecs ship:
//
//   - raw   — every value as float64 in a gzip-compressed gob, bit-exact;
//     the compatibility baseline every peer understands.
//   - f32   — float32 truncation; |err| ≤ |v|·2⁻²⁴ per value, ~0.41× raw.
//   - q8    — per-tensor symmetric int8 quantization with a stored scale;
//     |err| ≤ max|v|/254 per tensor, ~0.10× raw.
//   - delta — sparse top-k of the change versus a reference state (the
//     dispatched model), index-gap+value encoded; kept coordinates are
//     exact to float32 rounding, dropped coordinates keep the reference
//     value. Falls back to dense float32 when no reference is available or
//     the kept fraction would not pay for the index overhead.
//
// The three non-raw codecs share one payload container (frame.go): a
// format byte, a length-prefixed header, then flat little-endian sections
// — float32 values split into four byte planes, q8 levels, uvarint index
// gaps — in a single Huffman-only gzip member whose CRC-32 guards every
// byte. The header fixes the inflated length, and a decoder reads exactly
// that much.
//
// Codecs are registered by tag so transports can negotiate: the server
// stamps each request with the codec tag and the device answers in kind.
// Raw keeps its own container (codecs.go) but validates names and shapes
// through the frame's header check, so both formats refuse the same
// corrupt shapes. See docs/WIRE.md for both formats and the compatibility
// rules.
package wire

import (
	"fmt"
	"sort"

	"adaptivefl/internal/nn"
)

// Codec serialises a state dict. ref, when non-nil, is the reference
// state a delta codec diffs against — both ends of a transfer must pass
// the same reference (the decoded dispatched state) or the decode
// diverges. Stateless codecs ignore ref.
type Codec interface {
	// Tag is the codec's wire name, carried in envelopes and requests.
	Tag() string
	// Encode serialises st (diffed against ref when the codec uses one).
	Encode(st, ref nn.State) ([]byte, error)
	// Decode reconstructs a state dict from Encode's output.
	Decode(data []byte, ref nn.State) (nn.State, error)
	// UsesRef reports whether Decode needs the same ref Encode saw.
	UsesRef() bool
}

// registry holds the codecs reachable by tag.
var registry = map[string]Codec{}

// Register makes a codec reachable by its tag, replacing any previous
// registration. Packages may register custom codecs at init time.
func Register(c Codec) { registry[c.Tag()] = c }

// ByTag resolves a codec tag. The empty tag resolves to raw, the
// compatibility baseline, so untagged (pre-codec) peers keep working.
func ByTag(tag string) (Codec, error) {
	if tag == "" {
		tag = TagRaw
	}
	c, ok := registry[tag]
	if !ok {
		return nil, fmt.Errorf("wire: unknown codec %q (have %v)", tag, Tags())
	}
	return c, nil
}

// Tags returns the registered codec tags, sorted.
func Tags() []string {
	tags := make([]string, 0, len(registry))
	for t := range registry {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

// The built-in codec tags.
const (
	TagRaw   = "raw"
	TagF32   = "f32"
	TagQ8    = "q8"
	TagDelta = "delta"
)

func init() {
	Register(Raw{})
	Register(F32{})
	Register(Q8{})
	Register(NewDeltaTopK())
}
