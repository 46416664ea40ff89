// Package obs is the observability layer: deterministic span tracing and
// a metrics registry for the federated-training engine, with Prometheus
// and JSONL exporters.
//
// The design splits what a run records into two streams with different
// guarantees:
//
//   - Spans carry *virtual-time* facts — one span per flight (dispatch →
//     download → train → upload → merge/cancel/late-reuse), per commit,
//     per hierarchy edge/global merge, per LRU materialise/evict. Every
//     field of a span is a deterministic function of the run's seed, trace
//     and cost model, and spans are emitted by the engine's control code,
//     one goroutine at a time, in event order, so the JSONL trace of two
//     same-seed runs is byte-identical.
//   - Metrics carry *live* facts — counters, gauges and histograms fed
//     from the spans plus wall-clock timings (codec encode/decode, fednet
//     request latency) and executor/LRU occupancy. Metrics are for a
//     scrape endpoint mid-run, not for replay, and make no determinism
//     claim beyond never feeding back into the simulation.
//
// Attaching an Observer must never perturb a run: observers only read
// values the engine already computed, so the event log, ledger, RL tables
// and global weights are bit-identical with observability on or off
// (pinned by sched's TestObserverBitIdentity). A nil *Observer is the
// disabled state and is safe to call: every method nil-checks its
// receiver, and the nil path performs zero allocations (pinned by
// TestNilObserverZeroAlloc / BenchmarkNilObserverFlightPath), so the hot
// path carries no tracing cost when nothing is attached.
//
// See docs/OBS.md for the span model, the metric catalogue and example
// PromQL/jq queries over a JSONL trace.
package obs

import "sync"

// Span kinds. One flat Span struct covers every kind so emission sites
// build spans on the stack (no per-kind boxing); kinds use only the
// fields their documentation lists and leave the rest zero.
const (
	// KindFlight is one dispatch's full lifecycle: Client, Sent/Got,
	// Codec, byte counts, phase times (Start/DownEnd/TrainEnd/End),
	// Staleness, Reward and Outcome.
	KindFlight = "flight"
	// KindCommit is one engine aggregation: Round, Time and the
	// Merged/Failed/Late/Reused/Dropped outcome counts.
	KindCommit = "commit"
	// KindEdgeCommit is an edge aggregation entering backhaul transit in a
	// two-tier hierarchy: Edge, Round, Merged, Time (edge clock) and End
	// (global-tier arrival).
	KindEdgeCommit = "edge-commit"
	// KindGlobalArrive is an edge update folding into the global tier's
	// buffer after backhaul transit: Edge, Time (arrival) and Staleness
	// (global merges since the edge's anchor version).
	KindGlobalArrive = "global-arrive"
	// KindGlobalMerge is a global-tier aggregation: Round (global version),
	// Time and Merged (edge updates folded).
	KindGlobalMerge = "global-merge"
	// KindDownSync is an edge re-anchoring to a fresh global model: Edge,
	// Round (the synced version) and Time (edge clock).
	KindDownSync = "down-sync"
	// KindLRU is a lazy-population cache event: Op ("materialise" or
	// "evict") and Client. Time is unset — the population has no clock.
	KindLRU = "lru"
)

// Flight outcomes (Span.Outcome for KindFlight).
const (
	OutcomeMerged     = "merged"
	OutcomeLate       = "late"
	OutcomeLateReused = "late-reused"
	OutcomeDropped    = "dropped"
	OutcomeFailed     = "failed"
	// OutcomeRejected marks an upload that arrived but was refused —
	// undecodable or non-finite payload, or a non-positive sample weight.
	OutcomeRejected = "rejected"
	// OutcomeClipped marks a fresh merge whose update was norm-clipped by a
	// robust aggregation policy before folding in (clipped ⊆ merged).
	OutcomeClipped = "clipped"
)

// Downlink paths (Span.DownPath for KindFlight): how the dispatched
// artifact reached the client. DownBytes stays the logical artifact size
// on every path — the paths classify the serving cost, not the payload.
const (
	// DownEncodedOnce marks the first dispatch of a (snapshot, width,
	// codec) artifact: the one dispatch per cohort that pays the encode.
	DownEncodedOnce = "encoded-once"
	// DownReserved marks a dispatch served from the artifact store to a
	// client that had not yet received it — bytes cross, CPU does not.
	DownReserved = "re-served"
	// DownNotModified marks a dispatch to a client that already holds the
	// artifact (same client, same key): an ETag/If-None-Match skip where
	// neither encode CPU nor body bytes are spent.
	DownNotModified = "not-modified"
)

// LRU ops (Span.Op for KindLRU).
const (
	OpMaterialise = "materialise"
	OpEvict       = "evict"
)

// Span is one traced event. Fields are fixed-size (no slices, no maps) so
// a span builds entirely on the caller's stack; unused fields marshal away
// under omitempty. Client is -1 for spans that have no client.
type Span struct {
	Kind string `json:"kind"`
	// Time is the emitting tier's virtual clock when the span closed
	// (seconds). Zero for spans outside virtual time (KindLRU, and the
	// legacy synchronous Round path).
	Time float64 `json:"t"`
	// Start / DownEnd / TrainEnd / End are a flight's trace segments in
	// virtual seconds: dispatch cut, downlink done, local training done,
	// upload arrived (or the client dropped). End doubles as the arrival
	// time of an edge commit (KindEdgeCommit). DownEnd/TrainEnd are zero
	// when the phase never completed or the cost was priced in one piece
	// (an unplannable trainer's flight only exposes its end).
	Start    float64 `json:"start,omitempty"`
	DownEnd  float64 `json:"down_end,omitempty"`
	TrainEnd float64 `json:"train_end,omitempty"`
	End      float64 `json:"end,omitempty"`

	Client int    `json:"client"`
	Round  int    `json:"round,omitempty"`
	Edge   int    `json:"edge,omitempty"`
	Op     string `json:"op,omitempty"`

	// Flight is the dispatch's flight ID (KindFlight; IDs start at 1, so 0
	// marshals away and means "no flight"). It is the correlation key
	// across processes: fednet threads it through HTTP requests as the
	// Fednet-Flight header, so agent-side wall-clock records join back to
	// the deterministic span (fltrace join). Ver is the global-model
	// version the dispatch was cut from — the staleness anchor — letting an
	// auditor replay per-tier version counters from the stream and check
	// every span's stale field against sched.StalenessDiscount's input.
	Flight int64 `json:"flight,omitempty"`
	Ver    int   `json:"ver,omitempty"`

	// Flight payload facts: the dispatched and returned pool members (the
	// width decision), the negotiated codec, and the bytes that crossed.
	Sent      string `json:"sent,omitempty"`
	Got       string `json:"got,omitempty"`
	Codec     string `json:"codec,omitempty"`
	DownBytes int64  `json:"down_bytes,omitempty"`
	// DownPath classifies how the downlink artifact was served (one of the
	// Down* constants). Empty on runs without an artifact store, which
	// metrics fold into the encoded-once series — the pre-store behaviour
	// where every dispatch paid its own encode.
	DownPath string `json:"down_path,omitempty"`
	UpBytes  int64  `json:"up_bytes,omitempty"`

	// Staleness is the aggregation distance the update was merged at;
	// Reward the RL selection reward R(got, client) after the table
	// update; Outcome how the flight was finalised. TrainSkipped marks
	// lazily skipped trainings (sealed dropouts).
	Staleness    int     `json:"stale,omitempty"`
	Reward       float64 `json:"reward,omitempty"`
	Outcome      string  `json:"outcome,omitempty"`
	TrainSkipped bool    `json:"train_skipped,omitempty"`

	// Commit outcome counts (KindCommit, KindEdgeCommit, KindGlobalMerge).
	// Rejected counts refused uploads; Clipped counts norm-clipped merges
	// (a subset of Merged, not an extra class).
	Merged   int `json:"merged,omitempty"`
	Failed   int `json:"failed,omitempty"`
	Late     int `json:"late,omitempty"`
	Reused   int `json:"reused,omitempty"`
	Dropped  int `json:"dropped,omitempty"`
	Rejected int `json:"rejected,omitempty"`
	Clipped  int `json:"clipped,omitempty"`
}

// SpanSink receives completed spans. Implementations must be safe for
// concurrent use (engine spans arrive from the event loop, LRU spans from
// whichever goroutine touched the population).
type SpanSink interface {
	Span(s Span)
}

// Observer fans spans out to sinks and folds them into a metrics
// registry. The zero value and nil are both valid disabled observers; all
// methods nil-check the receiver so call sites need no guards (though
// guarding span *construction* behind Enabled keeps even the stack writes
// off the disabled hot path).
type Observer struct {
	mu      sync.Mutex
	sinks   []SpanSink
	metrics *Metrics
}

// NewObserver builds an observer feeding the given metrics registry (nil
// for spans-only) and sinks.
func NewObserver(m *Metrics, sinks ...SpanSink) *Observer {
	return &Observer{metrics: m, sinks: sinks}
}

// AddSink attaches another span sink.
func (o *Observer) AddSink(s SpanSink) {
	if o == nil || s == nil {
		return
	}
	o.mu.Lock()
	o.sinks = append(o.sinks, s)
	o.mu.Unlock()
}

// Enabled reports whether anything is attached. Emission sites use it to
// skip span construction entirely on the disabled path.
func (o *Observer) Enabled() bool { return o != nil }

// Metrics returns the observer's registry (nil when disabled or none was
// attached).
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Span emits one completed span: the metrics registry folds it in, then
// every sink sees it in attachment order. Safe (and free of allocation)
// on a nil observer.
func (o *Observer) Span(s Span) {
	if o == nil {
		return
	}
	if o.metrics != nil {
		o.metrics.applySpan(s)
	}
	o.mu.Lock()
	sinks := o.sinks
	o.mu.Unlock()
	for _, sink := range sinks {
		sink.Span(s)
	}
}

// ExecDepth updates the executor occupancy gauges: tasks waiting for a
// worker and tasks currently training. Deltas, not absolutes, so
// concurrent workers compose. Nil-safe, zero-alloc when disabled.
func (o *Observer) ExecDepth(queuedDelta, runningDelta int64) {
	if o == nil || o.metrics == nil {
		return
	}
	if queuedDelta != 0 {
		o.metrics.ExecQueued.Add(queuedDelta)
	}
	if runningDelta != 0 {
		o.metrics.ExecRunning.Add(runningDelta)
	}
}

// LRULive updates the lazy population's live-client gauge (materialised +
// pinned). Nil-safe, zero-alloc when disabled.
func (o *Observer) LRULive(live int64) {
	if o == nil || o.metrics == nil {
		return
	}
	o.metrics.LRULive.Set(live)
}
