package fednet

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/prune"
)

// scrape GETs a metrics endpoint and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// parsePrometheus structurally validates a text-format scrape — every
// series line parses, and its family was TYPE-declared first — and
// returns series name{labels} → value.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed series line %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %q: bad value %q: %v", key, val, err)
		}
		family := key
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		family = strings.TrimSuffix(family, "_bucket")
		family = strings.TrimSuffix(family, "_sum")
		family = strings.TrimSuffix(family, "_count")
		if !typed[family] {
			t.Fatalf("series %q has no preceding TYPE declaration", key)
		}
		series[key] = v
	}
	return series
}

// TestAgentMetrics covers the fleet's live introspection path end to end:
// agents of a running cluster serve Prometheus text on their own ports,
// the scrape parses, the core series are present, and counters are
// monotone across a mid-run scrape. The pprof mount is opt-in per agent.
func TestAgentMetrics(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 3)
	cluster, err := NewCluster(clients, mcfg, pcfg, quickTrain())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	m := obs.NewMetrics()
	cluster.SetMetrics(m, func(int) *obs.Metrics { return m })
	cluster.Agents[0].Pprof = true

	srv, err := core.NewServer(core.Config{
		Model: mcfg, Pool: pcfg, ClientsPerRound: 2,
		Train: quickTrain(), Seed: 63,
		Trainer: cluster.Trainer,
	}, clients)
	if err != nil {
		t.Fatal(err)
	}

	eng := syncEngine(t, srv, 2)
	if err := eng.Run(1, nil); err != nil {
		t.Fatal(err)
	}
	mid := parsePrometheus(t, scrape(t, cluster.MetricsURL(0)))

	trainKey := `fl_http_requests_total{route="train"}`
	dispatchKey := `fl_http_requests_total{route="dispatch"}`
	for _, key := range []string{trainKey, dispatchKey, "fl_http_request_bytes_total", "fl_http_response_bytes_total"} {
		if mid[key] <= 0 {
			t.Fatalf("mid-run scrape: %s = %v; want > 0\nscrape:\n%s", key, mid[key], cluster.MetricsURL(0))
		}
	}
	if mid[trainKey] != mid[dispatchKey] {
		t.Fatalf("served train requests (%v) != dispatch round trips (%v) on a shared registry",
			mid[trainKey], mid[dispatchKey])
	}

	if err := eng.Run(1, nil); err != nil {
		t.Fatal(err)
	}
	end := parsePrometheus(t, scrape(t, cluster.MetricsURL(1)))
	for _, key := range []string{trainKey, dispatchKey, "fl_http_request_bytes_total"} {
		if end[key] < mid[key] {
			t.Fatalf("counter %s went backwards: %v -> %v", key, mid[key], end[key])
		}
		if end[key] == mid[key] {
			t.Fatalf("counter %s did not advance over a round: %v", key, end[key])
		}
	}
	// Histogram invariant: the +Inf bucket equals the count.
	infKey := `fl_http_request_seconds_bucket{route="train",le="+Inf"}`
	countKey := `fl_http_request_seconds_count{route="train"}`
	if end[infKey] != end[countKey] || end[countKey] <= 0 {
		t.Fatalf("train latency histogram: +Inf bucket %v, count %v", end[infKey], end[countKey])
	}

	// pprof is mounted only where opted in.
	base0 := strings.TrimSuffix(cluster.MetricsURL(0), "/metrics")
	resp, err := http.Get(base0 + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on opted-in agent: %d", resp.StatusCode)
	}
	base1 := strings.TrimSuffix(cluster.MetricsURL(1), "/metrics")
	resp, err = http.Get(base1 + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served on an agent that did not opt in")
	}
}
