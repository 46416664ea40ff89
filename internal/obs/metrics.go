package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Bucket bounds are
// chosen at construction and never change, so scrapes across a run line
// up. Observe is lock-free (atomic bucket counts, CAS float sum).
type Histogram struct {
	bounds []float64 // upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// counterVec is a label → Counter family; labels are created on first use.
type counterVec struct {
	mu sync.Mutex
	m  map[string]*Counter
}

func newCounterVec() *counterVec { return &counterVec{m: map[string]*Counter{}} }

func (v *counterVec) with(label string) *Counter {
	v.mu.Lock()
	c := v.m[label]
	if c == nil {
		c = &Counter{}
		v.m[label] = c
	}
	v.mu.Unlock()
	return c
}

func (v *counterVec) sortedLabels() []string {
	v.mu.Lock()
	labels := make([]string, 0, len(v.m))
	for k := range v.m {
		labels = append(labels, k)
	}
	v.mu.Unlock()
	sort.Strings(labels)
	return labels
}

// histogramVec is a label → Histogram family sharing one bucket layout.
type histogramVec struct {
	mu     sync.Mutex
	bounds []float64
	m      map[string]*Histogram
}

func newHistogramVec(bounds ...float64) *histogramVec {
	return &histogramVec{bounds: bounds, m: map[string]*Histogram{}}
}

func (v *histogramVec) with(label string) *Histogram {
	v.mu.Lock()
	h := v.m[label]
	if h == nil {
		h = NewHistogram(v.bounds...)
		v.m[label] = h
	}
	v.mu.Unlock()
	return h
}

func (v *histogramVec) sortedLabels() []string {
	v.mu.Lock()
	labels := make([]string, 0, len(v.m))
	for k := range v.m {
		labels = append(labels, k)
	}
	v.mu.Unlock()
	sort.Strings(labels)
	return labels
}

// Fixed bucket layouts. Virtual-time buckets span one straggler flight to
// a simulated hour; wall-clock buckets span a fast codec pass to a slow
// HTTP round trip; staleness follows the powers the discount 1/(1+s)^α
// cares about.
var (
	simSecondsBuckets  = []float64{15, 30, 60, 120, 300, 600, 1800, 3600}
	wallSecondsBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}
	stalenessBuckets   = []float64{0, 1, 2, 4, 8, 16, 32}
	rewardBuckets      = []float64{0.1, 0.25, 0.5, 1, 2, 4, 8}
)

// Metrics is the registry: a fixed catalogue of counters, gauges and
// histograms (documented in docs/OBS.md) fed from spans plus the
// wall-clock hooks. All fields are safe for concurrent use.
type Metrics struct {
	// Span-fed (deterministic content, scrape-time ordering).
	Flights        *counterVec // fl_flights_total{outcome=...}
	TrainSkipped   Counter     // fl_flights_train_skipped_total
	DownBytes      *counterVec // fl_down_bytes_total{path=...}
	UpBytes        Counter     // fl_up_bytes_total
	Commits        *counterVec // fl_commits_total{kind=...}
	MergedUpdates  Counter     // fl_merged_updates_total
	Staleness      *Histogram  // fl_staleness
	Reward         *Histogram  // fl_reward
	FlightSimSecs  *Histogram  // fl_flight_sim_seconds
	LRUMaterialise Counter     // fl_lru_materialise_total
	LRUEvict       Counter     // fl_lru_evict_total

	// Live occupancy.
	LRULive     Gauge // fl_lru_live_clients
	ExecQueued  Gauge // fl_exec_queued
	ExecRunning Gauge // fl_exec_running

	// Wall-clock (never in spans).
	CodecSeconds  *histogramVec // fl_codec_seconds{op="<tag>/<encode|decode>"}
	CodecBytes    *counterVec   // fl_codec_bytes_total{op=...}
	HTTPSeconds   *histogramVec // fl_http_request_seconds{route=...}
	HTTPRequests  *counterVec   // fl_http_requests_total{route=...}
	HTTPReqBytes  Counter       // fl_http_request_bytes_total
	HTTPRespBytes Counter       // fl_http_response_bytes_total
}

// NewMetrics builds a registry with the fixed bucket layouts.
func NewMetrics() *Metrics {
	return &Metrics{
		Flights:       newCounterVec(),
		DownBytes:     newCounterVec(),
		Commits:       newCounterVec(),
		Staleness:     NewHistogram(stalenessBuckets...),
		Reward:        NewHistogram(rewardBuckets...),
		FlightSimSecs: NewHistogram(simSecondsBuckets...),
		CodecSeconds:  newHistogramVec(wallSecondsBuckets...),
		CodecBytes:    newCounterVec(),
		HTTPSeconds:   newHistogramVec(wallSecondsBuckets...),
		HTTPRequests:  newCounterVec(),
	}
}

// applySpan folds one span into the registry.
func (m *Metrics) applySpan(s Span) {
	switch s.Kind {
	case KindFlight:
		m.Flights.with(s.Outcome).Inc()
		if s.TrainSkipped {
			m.TrainSkipped.Inc()
		}
		path := s.DownPath
		if path == "" {
			path = DownEncodedOnce
		}
		m.DownBytes.with(path).Add(s.DownBytes)
		m.UpBytes.Add(s.UpBytes)
		if s.Outcome == OutcomeMerged || s.Outcome == OutcomeLateReused {
			m.Staleness.Observe(float64(s.Staleness))
			m.Reward.Observe(s.Reward)
		}
		if s.End > s.Start {
			m.FlightSimSecs.Observe(s.End - s.Start)
		}
	case KindCommit, KindEdgeCommit, KindGlobalMerge, KindDownSync:
		m.Commits.with(s.Kind).Inc()
		m.MergedUpdates.Add(int64(s.Merged))
	case KindLRU:
		switch s.Op {
		case OpMaterialise:
			m.LRUMaterialise.Inc()
		case OpEvict:
			m.LRUEvict.Inc()
		}
	}
}

// CodecTiming records one wall-clock encode or decode pass. op is
// "encode" or "decode"; the series label is "<tag>/<op>".
func (m *Metrics) CodecTiming(tag, op string, bytes int, seconds float64) {
	if m == nil {
		return
	}
	label := tag + "/" + op
	m.CodecSeconds.with(label).Observe(seconds)
	m.CodecBytes.with(label).Add(int64(bytes))
}

// HTTPRequest records one served request: route (a low-cardinality path
// class like "train" or "metrics"), wall-clock latency and payload sizes.
func (m *Metrics) HTTPRequest(route string, seconds float64, reqBytes, respBytes int64) {
	if m == nil {
		return
	}
	m.HTTPSeconds.with(route).Observe(seconds)
	m.HTTPRequests.with(route).Inc()
	m.HTTPReqBytes.Add(reqBytes)
	m.HTTPRespBytes.Add(respBytes)
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4). Families appear in a fixed order, series within
// a family in sorted label order, so consecutive scrapes diff cleanly.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeCounterVec(bw, "fl_flights_total", "Flights finalised, by outcome.", "outcome", m.Flights)
	writeCounter(bw, "fl_flights_train_skipped_total", "Flights whose local training was lazily skipped.", &m.TrainSkipped)
	writeCounterVec(bw, "fl_down_bytes_total", "Downlink payload bytes dispatched (logical artifact size), by serving path.", "path", m.DownBytes)
	writeCounter(bw, "fl_up_bytes_total", "Uplink payload bytes received (actual).", &m.UpBytes)
	writeCounterVec(bw, "fl_commits_total", "Aggregation events, by tier/kind.", "kind", m.Commits)
	writeCounter(bw, "fl_merged_updates_total", "Client/edge updates folded into aggregations.", &m.MergedUpdates)
	writeHistogram(bw, "fl_staleness", "Aggregation distance of merged updates (versions).", "", "", m.Staleness)
	writeHistogram(bw, "fl_reward", "RL selection reward of merged updates.", "", "", m.Reward)
	writeHistogram(bw, "fl_flight_sim_seconds", "Virtual dispatch-to-arrival duration of completed flights.", "", "", m.FlightSimSecs)
	writeCounter(bw, "fl_lru_materialise_total", "Lazy-population clients materialised.", &m.LRUMaterialise)
	writeCounter(bw, "fl_lru_evict_total", "Lazy-population clients evicted.", &m.LRUEvict)
	writeGauge(bw, "fl_lru_live_clients", "Lazy-population clients currently resident.", &m.LRULive)
	writeGauge(bw, "fl_exec_queued", "Flight tasks waiting for an executor worker.", &m.ExecQueued)
	writeGauge(bw, "fl_exec_running", "Flight tasks currently executing.", &m.ExecRunning)
	writeHistogramVec(bw, "fl_codec_seconds", "Wall-clock codec pass latency, by tag/op.", "op", m.CodecSeconds)
	writeCounterVec(bw, "fl_codec_bytes_total", "Bytes through codec passes, by tag/op.", "op", m.CodecBytes)
	writeHistogramVec(bw, "fl_http_request_seconds", "Wall-clock HTTP request latency, by route; an agent's latency excludes writing the response body.", "route", m.HTTPSeconds)
	writeCounterVec(bw, "fl_http_requests_total", "HTTP requests served, by route.", "route", m.HTTPRequests)
	writeCounter(bw, "fl_http_request_bytes_total", "HTTP request body bytes read.", &m.HTTPReqBytes)
	writeCounter(bw, "fl_http_response_bytes_total", "HTTP response body bytes written.", &m.HTTPRespBytes)
	return bw.Flush()
}

func writeHeader(w *bufio.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeCounter(w *bufio.Writer, name, help string, c *Counter) {
	writeHeader(w, name, help, "counter")
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}

func writeGauge(w *bufio.Writer, name, help string, g *Gauge) {
	writeHeader(w, name, help, "gauge")
	fmt.Fprintf(w, "%s %d\n", name, g.Value())
}

func writeCounterVec(w *bufio.Writer, name, help, labelKey string, v *counterVec) {
	writeHeader(w, name, help, "counter")
	for _, label := range v.sortedLabels() {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, labelKey, label, v.with(label).Value())
	}
}

func writeHistogram(w *bufio.Writer, name, help, labelKey, label string, h *Histogram) {
	if labelKey == "" {
		writeHeader(w, name, help, "histogram")
	}
	suffix := ""
	if labelKey != "" {
		suffix = fmt.Sprintf("%s=%q", labelKey, label)
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := strconv.FormatFloat(b, 'g', -1, 64)
		if suffix != "" {
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, suffix, le, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
	}
	if suffix != "" {
		fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, suffix, h.Count())
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, suffix, h.Sum())
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, suffix, h.Count())
	} else {
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	}
}

func writeHistogramVec(w *bufio.Writer, name, help, labelKey string, v *histogramVec) {
	writeHeader(w, name, help, "histogram")
	for _, label := range v.sortedLabels() {
		writeHistogram(w, name, help, labelKey, label, v.with(label))
	}
}
