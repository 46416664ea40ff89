package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

// The payload frame every codec writes (docs/WIRE.md, "Payload frame").
// One gzip member at gzip.HuffmanOnly wraps
//
//	format byte | u32 header length | header | index gaps | q8 levels | value planes 0..3
//
// with every multi-byte field little-endian. The gzip trailer's CRC-32 and
// length cover every byte, so a flipped bit anywhere fails the decode.
const (
	// frameFormat opens every frame. A gob stream — the container these
	// codecs used before the frame — opens with a message length whose
	// first byte is below 0x80 or at least 0xF8, so an old payload can
	// never be taken for a frame.
	frameFormat = 0xA1

	// maxFrameHeader bounds the declared header length. Real headers are a
	// few KiB (one name and shape per tensor).
	maxFrameHeader = 1 << 20

	// maxInflateRatio is deflate's best case, 1032 output bytes per input
	// byte. A frame declaring more than the payload could possibly inflate
	// to is rejected before its buffer is allocated.
	maxInflateRatio = 1032
)

// Tensor kinds: how one tensor's values sit in the bulk sections.
const (
	kindDense  byte = iota // n float32 values in the value planes
	kindQ8                 // float64 scale in the header, n bytes in the level section
	kindSparse             // kept count in the header; kept index gaps, kept float32 deltas in the value planes
	kindF64                // n float64 values bit-exact: n low 32-bit words, then n high words, in the value planes
	numKinds
)

// header is a frame's metadata, one entry per tensor in name order.
type header struct {
	names  []string
	shapes [][]int
	kinds  []byte
	scales []float64 // kindQ8 entries; zero elsewhere
	kept   []int     // kindSparse entries; zero elsewhere
	// gapBytes is the length of the index-gap section, the only bulk
	// section whose length the shapes and kinds do not fix.
	gapBytes int
}

// validate checks the names and shapes of a decoded header and returns
// the element count of each tensor. Wire data is untrusted, so corruption
// must surface as an error.
func (h header) validate() ([]int, error) {
	if len(h.names) != len(h.shapes) {
		return nil, fmt.Errorf("corrupt header (%d names, %d shapes)", len(h.names), len(h.shapes))
	}
	if !sort.StringsAreSorted(h.names) {
		return nil, fmt.Errorf("corrupt header (names not sorted)")
	}
	counts := make([]int, len(h.names))
	for i, shape := range h.shapes {
		n := 1
		for _, d := range shape {
			if d < 0 {
				return nil, fmt.Errorf("negative dimension in %q", h.names[i])
			}
			// Corrupt dimensions must not overflow the element count (a
			// wrapped-negative count defeats every later length check) or
			// drive a decoder into an absurd allocation.
			if d > 0 && n > maxWireElems/d {
				return nil, fmt.Errorf("shape %v of %q exceeds %d elements", shape, h.names[i], maxWireElems)
			}
			n *= d
		}
		counts[i] = n
	}
	return counts, nil
}

// maxWireElems bounds a single decoded tensor (2²⁸ elements = 2 GiB of
// float64 — far beyond any model this transport moves). Wire data is
// untrusted: without a cap, a corrupt shape turns into an enormous
// allocation before any payload-length check can catch it (the delta
// decoder allocates the full dense tensor for a sparse payload).
const maxWireElems = 1 << 28

// frameWriter accumulates one frame's sections. Writers are recycled on a
// tensor.FreeList, which unlike a sync.Pool keeps them through garbage
// collection: an encode reuses the section buffers, the deflate state and
// the quickselect scratch of an earlier one, so a steady-state encode
// allocates only the bytes it returns. Nothing recycled reaches the output
// except through finish, which writes every section from the start — the
// bytes are a pure function of the calls made since reset.
type frameWriter struct {
	tensors int
	head    []byte    // per-tensor header entries
	gaps    []byte    // uvarint index gaps of the sparse tensors
	levels  []byte    // biased levels of the q8 tensors
	planes  [4][]byte // byte b of every 32-bit value word, in value order
	mags    []float64 // DeltaTopK's quickselect scratch
	out     bytes.Buffer
	zw      *gzip.Writer
}

var frameWriters = tensor.FreeList[*frameWriter]{New: func() *frameWriter {
	w := &frameWriter{}
	// The level is a constant; NewWriterLevel fails only on an invalid one.
	w.zw, _ = gzip.NewWriterLevel(&w.out, gzip.HuffmanOnly)
	return w
}}

// encodeFrame runs fill against a recycled writer and returns the finished
// frame.
func encodeFrame(fill func(w *frameWriter) error) ([]byte, error) {
	w := frameWriters.Get()
	defer frameWriters.Put(w)
	w.tensors = 0
	w.head, w.gaps, w.levels = w.head[:0], w.gaps[:0], w.levels[:0]
	for b := range w.planes {
		w.planes[b] = w.planes[b][:0]
	}
	if err := fill(w); err != nil {
		return nil, err
	}
	return w.finish()
}

// grow extends b by n bytes, reusing its capacity when it can. The new
// bytes are unspecified; callers overwrite all of them.
func grow(b []byte, n int) []byte { return slices.Grow(b, n)[:len(b)+n] }

// entry appends one tensor's header entry up to and including its kind.
func (w *frameWriter) entry(name string, shape []int, kind byte) {
	w.tensors++
	w.head = binary.AppendUvarint(w.head, uint64(len(name)))
	w.head = append(w.head, name...)
	w.head = binary.AppendUvarint(w.head, uint64(len(shape)))
	for _, d := range shape {
		w.head = binary.AppendUvarint(w.head, uint64(d))
	}
	w.head = append(w.head, kind)
}

// values reserves n slots in the value planes and returns the first.
func (w *frameWriter) values(n int) int {
	at := len(w.planes[0])
	for b := range w.planes {
		w.planes[b] = grow(w.planes[b], n)
	}
	return at
}

// setValue stores v in value slot at.
func (w *frameWriter) setValue(at int, v float32) {
	b := math.Float32bits(v)
	w.planes[0][at] = byte(b)
	w.planes[1][at] = byte(b >> 8)
	w.planes[2][at] = byte(b >> 16)
	w.planes[3][at] = byte(b >> 24)
}

// dense adds t as float32 values.
func (w *frameWriter) dense(name string, t *tensor.Tensor) {
	w.entry(name, t.Shape, kindDense)
	at, n := w.values(len(t.Data)), len(t.Data)
	p0, p1, p2, p3 := w.planes[0][at:at+n], w.planes[1][at:at+n], w.planes[2][at:at+n], w.planes[3][at:at+n]
	for i, v := range t.Data {
		b := math.Float32bits(float32(v))
		p0[i], p1[i], p2[i], p3[i] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
	}
}

// f64 adds t bit-exact as two words per value: the n low words, then the
// n high words. Kept apart, the high words' sign and exponent bytes fill
// runs of planes 2 and 3 that Huffman coding finds nearly constant.
func (w *frameWriter) f64(name string, t *tensor.Tensor) {
	w.entry(name, t.Shape, kindF64)
	n := len(t.Data)
	at := w.values(2 * n)
	p0, p1, p2, p3 := w.planes[0][at:at+2*n], w.planes[1][at:at+2*n], w.planes[2][at:at+2*n], w.planes[3][at:at+2*n]
	for i, v := range t.Data {
		b := math.Float64bits(v)
		lo, hi := uint32(b), uint32(b>>32)
		p0[i], p1[i], p2[i], p3[i] = byte(lo), byte(lo>>8), byte(lo>>16), byte(lo>>24)
		p0[n+i], p1[n+i], p2[n+i], p3[n+i] = byte(hi), byte(hi>>8), byte(hi>>16), byte(hi>>24)
	}
}

// q8 adds a quantised tensor's entry and returns its n level bytes for the
// caller to fill.
func (w *frameWriter) q8(name string, shape []int, scale float64, n int) []byte {
	w.entry(name, shape, kindQ8)
	w.head = binary.LittleEndian.AppendUint64(w.head, math.Float64bits(scale))
	w.levels = grow(w.levels, n)
	return w.levels[len(w.levels)-n:]
}

// sparse adds a sparse tensor's entry and reserves its kept value slots,
// returning the first. The caller appends kept gaps and sets kept values.
func (w *frameWriter) sparse(name string, shape []int, kept int) int {
	w.entry(name, shape, kindSparse)
	w.head = binary.AppendUvarint(w.head, uint64(kept))
	return w.values(kept)
}

// gap appends the distance from the previous kept index (−1 before the
// first), so every gap is at least 1 and indices strictly increase.
func (w *frameWriter) gap(d int) {
	w.gaps = binary.AppendUvarint(w.gaps, uint64(d))
}

// scratch returns a float64 slice of length n, grown once to the largest
// tensor an encode sees.
func (w *frameWriter) scratch(n int) []float64 {
	if n > cap(w.mags) {
		w.mags = make([]float64, n)
	}
	return w.mags[:n]
}

// finish deflates the accumulated sections into a new byte slice.
func (w *frameWriter) finish() ([]byte, error) {
	pre := make([]byte, 5, 5+2*binary.MaxVarintLen64)
	pre = binary.AppendUvarint(pre, uint64(w.tensors))
	pre = binary.AppendUvarint(pre, uint64(len(w.gaps)))
	headLen := len(pre) - 5 + len(w.head)
	if headLen > maxFrameHeader {
		return nil, fmt.Errorf("wire: encode: %d-byte frame header exceeds %d", headLen, maxFrameHeader)
	}
	pre[0] = frameFormat
	binary.LittleEndian.PutUint32(pre[1:5], uint32(headLen))

	w.out.Reset()
	w.zw.Reset(&w.out)
	for _, sec := range [...][]byte{pre, w.head, w.gaps, w.levels, w.planes[0], w.planes[1], w.planes[2], w.planes[3]} {
		if _, err := w.zw.Write(sec); err != nil {
			return nil, fmt.Errorf("wire: encode: %w", err)
		}
	}
	if err := w.zw.Close(); err != nil {
		return nil, fmt.Errorf("wire: encode: %w", err)
	}
	return append([]byte(nil), w.out.Bytes()...), nil
}

// frameReader holds the inflate state and buffer a decode reuses; readers
// are recycled like writers.
type frameReader struct {
	src bytes.Reader
	zr  gzip.Reader
	buf []byte
}

var frameReaders = tensor.FreeList[*frameReader]{New: func() *frameReader { return new(frameReader) }}

// decodeFrame decodes a frame whose tensors all have a kind in the allow
// mask (bit k = kind k). ref supplies the reference blocks of sparse
// tensors. Errors carry the codec tag.
func decodeFrame(tag string, data []byte, ref nn.State, allow uint) (nn.State, error) {
	r := frameReaders.Get()
	defer frameReaders.Put(r)
	st, err := r.decode(data, ref, allow)
	r.src.Reset(nil) // an idle reader pins no payload
	if err != nil {
		return nil, fmt.Errorf("wire: %s: %w", tag, err)
	}
	return st, nil
}

// inflate reads exactly n more inflated bytes into the reader's buffer.
func (r *frameReader) inflate(n int) ([]byte, error) {
	r.buf = grow(r.buf[:0], n)
	_, err := io.ReadFull(&r.zr, r.buf)
	return r.buf, err
}

func (r *frameReader) decode(data []byte, ref nn.State, allow uint) (nn.State, error) {
	r.src.Reset(data)
	if err := r.zr.Reset(&r.src); err != nil {
		return nil, fmt.Errorf("gzip: %w", err)
	}
	pre, err := r.inflate(5)
	if err != nil {
		return nil, fmt.Errorf("frame prefix: %w", err)
	}
	if pre[0] != frameFormat {
		return nil, fmt.Errorf("payload format %#02x is not the flat frame %#02x (a gob payload from a build that predates the frame? upgrade agents and server together)", pre[0], frameFormat)
	}
	headLen := int(binary.LittleEndian.Uint32(pre[1:5]))
	if headLen > maxFrameHeader {
		return nil, fmt.Errorf("frame header of %d bytes exceeds %d", headLen, maxFrameHeader)
	}
	raw, err := r.inflate(headLen)
	if err != nil {
		return nil, fmt.Errorf("frame header: %w", err)
	}
	h, err := parseHeader(raw)
	if err != nil {
		return nil, err
	}
	counts, err := h.validate()
	if err != nil {
		return nil, err
	}

	// The header fixes every section length. Check the kinds and per-tensor
	// fields and size the body before inflating or allocating any of it.
	var nLevels, nValues int64
	bases := make([]*tensor.Tensor, len(h.names)) // reference blocks of the sparse tensors
	for i, name := range h.names {
		switch kind := h.kinds[i]; {
		case kind >= numKinds || allow&(1<<kind) == 0:
			return nil, fmt.Errorf("%q has tensor kind %d, which this codec does not decode", name, kind)
		case kind == kindDense:
			nValues += int64(counts[i])
		case kind == kindF64:
			nValues += 2 * int64(counts[i])
		case kind == kindQ8:
			nLevels += int64(counts[i])
			if s := h.scales[i]; !q8ScaleValid(s) {
				return nil, corruptScale(name, s)
			}
		case kind == kindSparse:
			if h.kept[i] > counts[i] {
				return nil, fmt.Errorf("%q keeps %d of %d elements", name, h.kept[i], counts[i])
			}
			if bases[i] = refBlock(ref, name, h.shapes[i]); bases[i] == nil {
				return nil, fmt.Errorf("%q is sparse but the reference state has no matching tensor", name)
			}
			nValues += int64(h.kept[i])
		}
	}
	bodyLen := int64(h.gapBytes) + nLevels + 4*nValues
	if bodyLen > maxInflateRatio*int64(len(data)) || int64(int(bodyLen)) != bodyLen { // the latter on 32-bit devices
		return nil, fmt.Errorf("frame declares %d body bytes, more than a %d-byte payload can inflate to", bodyLen, len(data))
	}
	body, err := r.inflate(int(bodyLen))
	if err != nil {
		return nil, fmt.Errorf("frame body: %w", err)
	}
	// The stream must end exactly here. Reading to its end is also what
	// makes gzip verify the CRC-32 and length trailer over all of it.
	var one [1]byte
	if _, err := io.ReadFull(&r.zr, one[:]); err == nil {
		return nil, fmt.Errorf("trailing bytes after the %d the frame declares", 5+int64(headLen)+bodyLen)
	} else if err != io.EOF {
		return nil, fmt.Errorf("frame end: %w", err)
	}

	gaps := body[:h.gapBytes]
	levels := body[h.gapBytes : int64(h.gapBytes)+nLevels]
	var planes [4][]byte
	for b := range planes {
		from := int64(len(gaps)+len(levels)) + int64(b)*nValues
		planes[b] = body[from : from+nValues]
	}
	// value returns value slot at, refusing float32's own Inf/NaN
	// encodings: a corrupt or diverged payload must not reach the
	// aggregate silently.
	value := func(at int) (float64, bool) {
		bits := uint32(planes[0][at]) | uint32(planes[1][at])<<8 | uint32(planes[2][at])<<16 | uint32(planes[3][at])<<24
		return float64(math.Float32frombits(bits)), bits&0x7f800000 != 0x7f800000
	}
	// word returns the 32-bit word in value slot at; kindF64 joins two.
	word := func(at int) uint64 {
		return uint64(planes[0][at]) | uint64(planes[1][at])<<8 | uint64(planes[2][at])<<16 | uint64(planes[3][at])<<24
	}

	st := make(nn.State, len(counts))
	at := 0 // next value slot
	for i, name := range h.names {
		n := counts[i]
		vals := make([]float64, n)
		switch h.kinds[i] {
		case kindDense:
			for j := range vals {
				v, ok := value(at + j)
				if !ok {
					return nil, nonFinite(name, j)
				}
				vals[j] = v
			}
			at += n
		case kindF64:
			for j := range vals {
				bits := word(at+n+j)<<32 | word(at+j)
				if bits&0x7ff0000000000000 == 0x7ff0000000000000 {
					return nil, nonFinite(name, j)
				}
				vals[j] = math.Float64frombits(bits)
			}
			at += 2 * n
		case kindQ8:
			scale := h.scales[i]
			for j, b := range levels[:n] {
				vals[j] = float64(int(b)-128) * scale
			}
			levels = levels[n:]
		case kindSparse:
			base := bases[i].Data
			copy(vals, base)
			idx := -1
			for k := 0; k < h.kept[i]; k++ {
				gap, used := binary.Uvarint(gaps)
				if used <= 0 {
					return nil, fmt.Errorf("%q index section ends inside kept index %d", name, k)
				}
				gaps = gaps[used:]
				// gap 0 repeats an index; a gap past the end names none.
				if gap == 0 || gap > uint64(n-1-idx) {
					return nil, fmt.Errorf("%q index gap %d after index %d outside %d elements", name, gap, idx, n)
				}
				idx += int(gap)
				v, ok := value(at + k)
				if !ok {
					return nil, nonFinite(name, idx)
				}
				vals[idx] = base[idx] + v
			}
			at += h.kept[i]
		}
		st[name] = tensor.FromSlice(vals, h.shapes[i]...)
	}
	if len(gaps) != 0 {
		return nil, fmt.Errorf("index section has %d bytes no tensor uses", len(gaps))
	}
	return st, nil
}

// nonFinite is the error for a value a decoder refuses: Inf or NaN, in
// the frame or produced by dequantisation.
func nonFinite(name string, j int) error {
	return fmt.Errorf("%q has non-finite value at index %d", name, j)
}

// q8ScaleValid reports whether a decoder accepts a q8 scale. Encode never
// produces a negative or non-finite scale, so either is wire corruption —
// and a NaN scale would otherwise decode the whole tensor to NaN with no
// diagnostic. A huge finite scale is refused too: dequantising level ±128
// against it overflows to Inf. Encode's scale, max|v|/127, is that huge
// only when some |v| is above 127/128 of MaxFloat64.
func q8ScaleValid(s float64) bool {
	return s >= 0 && s <= math.MaxFloat64/128 // false for NaN and ±Inf
}

// corruptScale is the error for a q8 scale q8ScaleValid refuses.
func corruptScale(name string, s float64) error {
	return fmt.Errorf("%q has corrupt scale %v", name, s)
}

// parseHeader decodes the header section. Every count it reads is checked
// against the bytes left (each counted item takes at least one), so a
// corrupt count cannot size an allocation.
func parseHeader(b []byte) (header, error) {
	bad := func(what string) (header, error) {
		return header{}, fmt.Errorf("corrupt frame header (%s)", what)
	}
	uvarint := func() (int, bool) {
		v, used := binary.Uvarint(b)
		// Nothing a header counts may pass the per-tensor cap, which also
		// keeps v an int.
		if used <= 0 || v > maxWireElems {
			return 0, false
		}
		b = b[used:]
		return int(v), true
	}
	nt, ok := uvarint()
	if !ok || nt > len(b) {
		return bad("tensor count")
	}
	gapBytes, ok := uvarint()
	if !ok {
		return bad("index section length")
	}
	h := header{
		names: make([]string, nt), shapes: make([][]int, nt), kinds: make([]byte, nt),
		scales: make([]float64, nt), kept: make([]int, nt), gapBytes: gapBytes,
	}
	for i := range h.names {
		nameLen, ok := uvarint()
		if !ok || nameLen > len(b) {
			return bad("name")
		}
		h.names[i] = string(b[:nameLen])
		b = b[nameLen:]
		rank, ok := uvarint()
		if !ok || rank > len(b) {
			return bad("rank of " + h.names[i])
		}
		h.shapes[i] = make([]int, rank)
		for d := range h.shapes[i] {
			if h.shapes[i][d], ok = uvarint(); !ok {
				return bad("shape of " + h.names[i])
			}
		}
		if len(b) == 0 {
			return bad("kind of " + h.names[i])
		}
		h.kinds[i] = b[0]
		b = b[1:]
		switch h.kinds[i] {
		case kindQ8:
			if len(b) < 8 {
				return bad("scale of " + h.names[i])
			}
			h.scales[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		case kindSparse:
			if h.kept[i], ok = uvarint(); !ok {
				return bad("kept count of " + h.names[i])
			}
		}
	}
	if len(b) != 0 {
		return bad(fmt.Sprintf("%d bytes after the last tensor", len(b)))
	}
	return h, nil
}

// refBlock returns the prefix block of ref[name] matching shape, or nil
// when ref has no compatible tensor. Uploads are often pruned below the
// dispatched widths, so the reference is sliced the same way the model
// was (width-wise prefix blocks).
func refBlock(ref nn.State, name string, shape []int) *tensor.Tensor {
	if ref == nil {
		return nil
	}
	g, ok := ref[name]
	if !ok {
		return nil
	}
	probe := &tensor.Tensor{Shape: shape}
	if !tensor.PrefixFits(probe, g) {
		return nil
	}
	if tensor.SameShape(probe, g) {
		return g
	}
	return tensor.ExtractPrefix(g, shape)
}
