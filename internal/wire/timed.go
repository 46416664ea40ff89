package wire

import (
	"time"

	"adaptivefl/internal/nn"
)

// CodecRecorder receives wall-clock codec pass measurements. It is
// satisfied by obs.(*Metrics) — wire stays a leaf package and only
// depends on the shape of the sink.
type CodecRecorder interface {
	CodecTiming(tag, op string, bytes int, seconds float64)
}

// Timed wraps a codec so every Encode/Decode pass reports its wall-clock
// latency and payload size to rec. Wall-clock facts go to metrics only —
// never into the deterministic span stream — so a timed codec is
// bit-identical to the bare one in everything the simulation sees. A nil
// rec returns c unchanged.
func Timed(c Codec, rec CodecRecorder) Codec {
	if rec == nil || c == nil {
		return c
	}
	return timedCodec{inner: c, rec: rec}
}

type timedCodec struct {
	inner Codec
	rec   CodecRecorder
}

func (t timedCodec) Tag() string   { return t.inner.Tag() }
func (t timedCodec) UsesRef() bool { return t.inner.UsesRef() }

func (t timedCodec) Encode(st, ref nn.State) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.Encode(st, ref)
	if err == nil {
		t.rec.CodecTiming(t.inner.Tag(), "encode", len(data), time.Since(start).Seconds())
	}
	return data, err
}

func (t timedCodec) Decode(data []byte, ref nn.State) (nn.State, error) {
	start := time.Now()
	st, err := t.inner.Decode(data, ref)
	if err == nil {
		t.rec.CodecTiming(t.inner.Tag(), "decode", len(data), time.Since(start).Seconds())
	}
	return st, err
}
