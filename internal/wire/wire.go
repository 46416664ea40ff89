// Package wire compresses model state dicts for the FL transport path.
// AdaptiveFL's Pi-class devices are uplink-bound, so the bytes a round
// moves matter as much as the MACs it burns: a Codec turns an nn.State
// into wire bytes and back, trading accuracy for size along a documented
// error bound. Four codecs ship:
//
//   - raw   — every value as float64, bit-exact; the fallback when
//     negotiation finds no shared codec.
//   - f32   — float32 truncation; |err| ≤ |v|·2⁻²⁴ per value, ~0.47× raw.
//   - q8    — per-tensor symmetric int8 quantization with a stored scale;
//     |err| ≤ max|v|/254 per tensor, ~0.12× raw.
//   - delta — sparse top-k of the change versus a reference state (the
//     dispatched model), index-gap+value encoded; kept coordinates are
//     exact to float32 rounding, dropped coordinates keep the reference
//     value. Falls back to dense float32 when no reference is available or
//     the kept fraction would not pay for the index overhead.
//
// Every codec writes one payload container (frame.go): a format byte, a
// length-prefixed header, then flat little-endian sections — 32-bit value
// words split into four byte planes, q8 levels, uvarint index gaps — in a
// single Huffman-only gzip member whose CRC-32 guards every byte. The
// header fixes the inflated length, and a decoder reads exactly that
// much. A payload in the gob container of builds that predate the frame is
// refused by every codec, raw included.
//
// Codecs are reachable by tag so transports can negotiate: the server
// stamps each request with the codec tag and the device answers in kind.
// See docs/WIRE.md for the format and the compatibility rules.
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
	// It must neither retain nor write st or ref: it reads them while it
	// runs and returns bytes of its own. st may be a view of a live
	// model — the device step encodes its upload straight from the
	// training arena's parameters, which the next training overwrites.
	Encode(st, ref nn.State) ([]byte, error)
	// Decode reconstructs a state dict from Encode's output.
	Decode(data []byte, ref nn.State) (nn.State, error)
	// UsesRef reports whether Decode needs the same ref Encode saw.
	UsesRef() bool
}

// builtin is a shipped codec. Besides the Codec methods it computes, in
// place, what a device decodes from its refless encode, so the downlink
// artifact store never inflates bytes it has just deflated.
type builtin interface {
	Codec
	// roundTrip overwrites every value of st with the value
	// Decode(Encode(st, nil), nil) holds there, bit for bit, and fails
	// where that Decode fails, with the same error. It is called only
	// after Encode(st, nil) succeeded; on an error st is left part
	// rewritten.
	roundTrip(st nn.State) error
}

// registry holds the codecs reachable by tag.
var registry = map[string]builtin{
	TagRaw: Raw{}, TagF32: F32{}, TagQ8: Q8{}, TagDelta: NewDeltaTopK(),
}

// ByTag resolves a codec tag. The empty tag resolves to raw, the
// compatibility baseline.
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

// Tags returns the codec tags, sorted.
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
