package fednet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/prune"
)

// fakeAgent serves a canned handler in place of a real device agent.
func fakeAgent(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return ts
}

// dispatchTo runs one dispatch against the given endpoint with a
// real encoded state.
func dispatchTo(t *testing.T, url string) (core.TrainResult, error) {
	t.Helper()
	mcfg := testModelCfg()
	pool, err := prune.BuildPool(mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	global := buildGlobal(t, mcfg)
	l1 := pool.Largest()
	st, err := pool.ExtractState(global, l1)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewHTTPTrainer([]string{url}, pool, quickTrain())
	return tr.Train(core.TrainRequest{Client: 0, Sent: l1, State: st, Seed: 1})
}

// TestTrainerRejectsMalformedUpload: an agent answering a well-formed
// envelope whose state blob is not decodable must come back as a
// Rejected result — the round completes and the garbage never reaches
// aggregation — not as a run-failing error.
func TestTrainerRejectsMalformedUpload(t *testing.T) {
	ts := fakeAgent(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(TrainResponse{
			GotIndex: 0, State: []byte("these are not weights"), Samples: 10,
		})
	})
	res, err := dispatchTo(t, ts.URL)
	if err != nil {
		t.Fatalf("corrupt upload should reject, not error: %v", err)
	}
	if !res.Rejected {
		t.Fatal("malformed upload accepted")
	}
	if res.State != nil {
		t.Fatal("rejected result carried state")
	}
	if res.GotBytes == 0 {
		t.Fatal("rejected upload should still record the bytes that crossed")
	}
}

// TestTrainerRejectsBadMemberIndex: a member index outside the pool is an
// agent-content fault — Rejected, not an error.
func TestTrainerRejectsBadMemberIndex(t *testing.T) {
	ts := fakeAgent(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(TrainResponse{
			GotIndex: 99, State: []byte{1, 2, 3}, Samples: 10,
		})
	})
	res, err := dispatchTo(t, ts.URL)
	if err != nil {
		t.Fatalf("bad member index should reject, not error: %v", err)
	}
	if !res.Rejected {
		t.Fatal("bad member index accepted")
	}
}

// TestTrainerRejectsMalformedJSON: a response body that is not JSON at
// all also fails loudly.
func TestTrainerRejectsMalformedJSON(t *testing.T) {
	ts := fakeAgent(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>not json</html>"))
	})
	if _, err := dispatchTo(t, ts.URL); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestTrainerHandlesConnectionDrop: the agent's connection dying mid
// response (device crash, network partition) must return a transport
// error.
func TestTrainerHandlesConnectionDrop(t *testing.T) {
	ts := fakeAgent(t, func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler) // kill the connection mid-request
	})
	if _, err := dispatchTo(t, ts.URL); err == nil {
		t.Fatal("dropped connection produced no error")
	}
}

// TestTrainerHandlesFailedResponse: Failed=true is a protocol outcome,
// not an error — the result must carry the flag and no state.
func TestTrainerHandlesFailedResponse(t *testing.T) {
	ts := fakeAgent(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(TrainResponse{Failed: true})
	})
	res, err := dispatchTo(t, ts.URL)
	if err != nil {
		t.Fatalf("Failed=true should not be an error: %v", err)
	}
	if !res.Failed {
		t.Fatal("Failed flag lost")
	}
	if res.State != nil {
		t.Fatal("failed response carried state")
	}
	if res.SentBytes == 0 {
		t.Fatal("failed dispatch should still record the bytes sent down")
	}
}

// TestRoundFailsWhenAgentDiesMidRound: a full Algorithm 1 round over HTTP
// where one agent's server is down must abort the round with an error
// naming the transport, and keep the other agents unharmed.
func TestRoundFailsWhenAgentDiesMidRound(t *testing.T) {
	mcfg := testModelCfg()
	pcfg := prune.Config{P: 3}
	clients := buildClients(t, 3)
	for _, c := range clients {
		c.Device.Jitter = 0
	}
	urls := make([]string, len(clients))
	var dead *httptest.Server
	for i, c := range clients {
		agent, err := NewAgent(c, mcfg, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(agent)
		urls[i] = ts.URL
		if i == 1 {
			dead = ts
		} else {
			defer ts.Close()
		}
	}
	dead.Close() // this agent is gone before the round starts
	pool, err := prune.BuildPool(mcfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Model: mcfg, Pool: pcfg, ClientsPerRound: 3,
		Train: quickTrain(), Seed: 63,
		Trainer: NewHTTPTrainer(urls, pool, quickTrain()),
	}, clients)
	if err != nil {
		t.Fatal(err)
	}
	err = srv.Round()
	if err == nil {
		t.Fatal("round succeeded with a dead agent")
	}
	if !strings.Contains(err.Error(), "dispatch to client") {
		t.Fatalf("error should identify the failed dispatch, got: %v", err)
	}
}

// TestAgentHTTPErrorPaths drives the agent's ServeHTTP through its error
// branches: wrong method, unparsable JSON, and a request whose state blob
// is not a valid envelope.
func TestAgentHTTPErrorPaths(t *testing.T) {
	mcfg := testModelCfg()
	clients := buildClients(t, 1)
	agent, err := NewAgent(clients[0], mcfg, prune.Config{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Make every pool member fit so the junk-state request reaches the
	// decode path instead of short-circuiting as Failed.
	clients[0].Device.Base = agent.Pool.Largest().Size * 2
	clients[0].Device.Jitter = 0
	ts := httptest.NewServer(agent)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPut, ts.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT returned %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL, "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("broken JSON returned %d, want 400", resp.StatusCode)
	}

	body, _ := json.Marshal(TrainRequest{SentIndex: 0, State: []byte("junk"), Train: quickTrain()})
	resp, err = http.Post(ts.URL, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("junk state returned %d, want 500", resp.StatusCode)
	}

	// GET negotiates: the supported codec list must parse and lead with raw.
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var list CodecList
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Codecs) == 0 || list.Codecs[0] != "raw" {
		t.Fatalf("codec list %v should lead with raw", list.Codecs)
	}
}
