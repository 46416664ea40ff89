package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func sampleFlight() Span {
	return Span{
		Kind: KindFlight, Time: 182.5, Start: 0, DownEnd: 12.5, TrainEnd: 170,
		End: 182.5, Client: 3, Sent: "M2", Got: "M2", Codec: "q8",
		DownBytes: 40000, UpBytes: 11000,
		Staleness: 1, Reward: 0.8, Outcome: OutcomeMerged,
	}
}

// The nil observer is the disabled state: every method must be safe and
// allocation-free so an untraced run pays nothing on the flight hot path.
func TestNilObserverZeroAlloc(t *testing.T) {
	var o *Observer
	s := sampleFlight()
	allocs := testing.AllocsPerRun(1000, func() {
		if o.Enabled() {
			t.Fatal("nil observer reports enabled")
		}
		o.Span(s)
		o.ExecDepth(1, -1)
		o.LRULive(42)
		_ = o.Metrics()
	})
	if allocs != 0 {
		t.Fatalf("nil observer path allocates %v per run, want 0", allocs)
	}
}

// BenchmarkNilObserverFlightPath is the acceptance benchmark: build a
// full flight span and emit it against a nil observer, as the engine's
// hot path would with no tracing attached. Must report 0 allocs/op.
func BenchmarkNilObserverFlightPath(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if o.Enabled() {
			s := sampleFlight()
			s.Client = i
			o.Span(s)
		}
		o.ExecDepth(1, 0)
		o.ExecDepth(-1, 1)
		o.ExecDepth(0, -1)
	}
}

func TestObserverFansOut(t *testing.T) {
	m := NewMetrics()
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	o := NewObserver(m, jw)
	if !o.Enabled() {
		t.Fatal("observer with sinks reports disabled")
	}
	o.Span(sampleFlight())
	o.Span(Span{Kind: KindCommit, Time: 200, Client: -1, Round: 1, Merged: 1})
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"kind":"flight"`) || !strings.Contains(lines[0], `"codec":"q8"`) {
		t.Fatalf("flight line missing fields: %s", lines[0])
	}
	if got := m.Flights.with(OutcomeMerged).Value(); got != 1 {
		t.Fatalf("merged flights counter = %d, want 1", got)
	}
	if got := m.Commits.with(KindCommit).Value(); got != 1 {
		t.Fatalf("commit counter = %d, want 1", got)
	}
	if got := m.DownBytes.with(DownEncodedOnce).Value(); got != 40000 {
		t.Fatalf("down bytes = %d, want 40000", got)
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	spans := []Span{
		sampleFlight(),
		{Kind: KindLRU, Client: 7, Op: OpMaterialise},
		{Kind: KindCommit, Time: 360, Client: -1, Round: 2, Merged: 3, Dropped: 1},
	}
	render := func() string {
		var buf bytes.Buffer
		jw := NewJSONLWriter(&buf)
		for _, s := range spans {
			jw.Span(s)
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("JSONL rendering not byte-stable:\n%s\nvs\n%s", a, b)
	}
	if jw := NewJSONLWriter(io.Discard); jw.Count() != 0 {
		t.Fatal("fresh writer has nonzero count")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+5+10+99+1000; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	// le semantics: 1 lands in the le=1 bucket, 10 in le=10.
	wantCounts := []int64{2, 2, 1, 1}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", i, got, want)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	m := NewMetrics()
	m.applySpan(sampleFlight())
	late := sampleFlight()
	late.Outcome = OutcomeLate
	late.DownPath = DownNotModified
	m.applySpan(late)
	m.applySpan(Span{Kind: KindCommit, Client: -1, Round: 1, Merged: 1})
	m.CodecTiming("q8", "encode", 11000, 0.002)
	m.HTTPRequest("train", 0.05, 40000, 11000)
	m.ExecQueued.Add(3)
	m.ExecQueued.Add(-1)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	checkPrometheusText(t, text)
	for _, want := range []string{
		`fl_flights_total{outcome="late"} 1`,
		`fl_flights_total{outcome="merged"} 1`,
		`fl_commits_total{kind="commit"} 1`,
		`fl_down_bytes_total{path="encoded-once"} 40000`,
		`fl_down_bytes_total{path="not-modified"} 40000`,
		"fl_exec_queued 2",
		`fl_codec_seconds_count{op="q8/encode"} 1`,
		`fl_codec_bytes_total{op="q8/encode"} 11000`,
		`fl_http_requests_total{route="train"} 1`,
		"fl_staleness_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// checkPrometheusText is a structural parser for the text exposition
// format: every non-comment line must be `name{labels} value` or
// `name value`, every series must follow a # TYPE for its family, and
// histogram bucket counts must be cumulative (monotone in le).
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	var lastBucketSeries string
	var lastBucketCum float64
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if line == "" {
			t.Fatal("blank line in exposition")
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if typed[family] == "" && strings.HasSuffix(name, suf) {
				family = strings.TrimSuffix(name, suf)
			}
		}
		if typed[family] == "" {
			t.Fatalf("series %q has no preceding # TYPE", line)
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("series line has no value: %q", line)
		}
		// Histogram buckets must be cumulative within one series.
		if strings.Contains(line, "_bucket{") {
			cut := strings.LastIndex(line, ",le=")
			if cut < 0 {
				cut = strings.Index(line, "{")
			}
			series := line[:cut]
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad bucket value in %q: %v", line, err)
			}
			if series == lastBucketSeries && v < lastBucketCum {
				t.Fatalf("bucket counts not monotone at %q", line)
			}
			lastBucketSeries, lastBucketCum = series, v
		}
	}
}

func TestMetricsHTTPHandler(t *testing.T) {
	m := NewMetrics()
	m.applySpan(sampleFlight())
	srv := httptest.NewServer(Handler(m, true))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	checkPrometheusText(t, string(body))

	// pprof index mounted when opted in.
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}

	// ...and absent when not.
	srv2 := httptest.NewServer(Handler(m, false))
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without opt-in: status %d, want 404", resp.StatusCode)
	}
}

func TestProgressSink(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressSink(&buf)
	p.Span(sampleFlight())
	p.Span(Span{Kind: KindCommit, Time: 200, Client: -1, Round: 1, Merged: 1})
	p.Span(Span{Kind: KindGlobalMerge, Time: 300, Client: -1, Round: 2, Merged: 4})
	out := buf.String()
	if !strings.Contains(out, "commit r=1") || !strings.Contains(out, "flights=1") {
		t.Fatalf("commit line missing: %q", out)
	}
	if !strings.Contains(out, "global r=2 merged=4") {
		t.Fatalf("global line missing: %q", out)
	}
}
