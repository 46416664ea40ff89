package fednet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/prune"
)

// TestFlightHeaderRoundTrip pins the cross-process correlation contract:
// a request's flight ID goes out as the Fednet-Flight request header, the
// agent echoes it on the response, both sides log a wall record carrying
// that ID, and a request with flight 0 sends no header at all.
func TestFlightHeaderRoundTrip(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 1)
	clients[0].Device.Jitter = 0
	agent, err := NewAgent(clients[0], mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var reqHeaders, respHeaders []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		agent.ServeHTTP(w, r)
		mu.Lock()
		reqHeaders = append(reqHeaders, r.Header.Get(FlightHeader))
		respHeaders = append(respHeaders, w.Header().Get(FlightHeader))
		mu.Unlock()
	}))
	defer ts.Close()

	pool, err := prune.BuildPool(mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	trainer := NewHTTPTrainer([]string{ts.URL}, pool, quickTrain())

	var wallBuf bytes.Buffer
	wall := obs.NewJSONLWriter(&wallBuf)
	trainer.wall.Store(wall)
	agent.wall.Store(wall)

	global := buildGlobal(t, mcfg)
	if _, err := trainer.Train(core.TrainRequest{Flight: 7, Client: 0, Sent: pool.Members[0], State: global, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Train(core.TrainRequest{Client: 0, Sent: pool.Members[0], State: global, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	// The handler records the headers — and the agent its wall record —
	// after the agent has answered, so the client can be back before the
	// second of either exists; Close waits for the handler to return, and
	// only then is the wall log complete.
	ts.Close()
	if err := wall.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if want := []string{"7", ""}; len(reqHeaders) != 2 || reqHeaders[0] != want[0] || reqHeaders[1] != want[1] {
		t.Fatalf("request flight headers = %q; want %q", reqHeaders, want)
	}
	if respHeaders[0] != "7" {
		t.Fatalf("response did not echo the flight header: %q", respHeaders[0])
	}
	if respHeaders[1] != "" {
		t.Fatalf("flightless dispatch got an echoed header: %q", respHeaders[1])
	}

	// Both sides logged the flight-7 dispatch under its ID; the request
	// with flight 0 logged with flight 0.
	byKey := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(wallBuf.String()), "\n") {
		var rec obs.WallRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("wall line %q: %v", line, err)
		}
		if rec.Kind != obs.WallKind || rec.Route != "train" {
			t.Fatalf("unexpected wall record %+v", rec)
		}
		if rec.Seconds <= 0 {
			t.Fatalf("wall record without a duration: %+v", rec)
		}
		byKey[rec.Side+"/"+strconv.FormatInt(rec.Flight, 10)]++
	}
	for _, key := range []string{"server/7", "agent/7", "server/0", "agent/0"} {
		if byKey[key] != 1 {
			t.Fatalf("wall records by side/flight = %v; want one each of server/7 agent/7 server/0 agent/0", byKey)
		}
	}
	if agentInst := agent.Instance(); agentInst == "" {
		t.Fatal("agent instance empty")
	}
}
