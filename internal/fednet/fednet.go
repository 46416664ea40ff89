// Package fednet runs AdaptiveFL over a real network, mirroring the
// paper's test-bed deployment: each device runs an Agent — an HTTP service
// owning its local data and resource state — and the cloud server executes
// Algorithm 1 with an HTTPTrainer that dispatches submodels to agents and
// collects the (possibly further pruned) trained submodels.
//
// The wire format is JSON envelopes carrying codec-encoded state dicts
// (internal/wire), so a dispatch is one POST /train round trip. Requests
// carry the codec tag the server chose for this agent — negotiated via
// GET /train, which lists the agent's supported codecs — and the agent
// answers in the same encoding. An untagged request means the raw codec's
// format, so pre-codec peers interoperate. Device-side resource-aware
// pruning happens inside the agent, exactly as in the paper: the server
// never sees the device's capacity, only which model size came back.
package fednet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptivefl/internal/core"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
)

// instanceHeader carries the agent's per-process instance ID on every
// response, so the server can detect a restarted agent (whose codec
// support may have changed) and re-negotiate instead of failing rounds.
const instanceHeader = "Fednet-Instance"

// FlightHeader carries the dispatch's flight ID (core.Flight.ID, decimal)
// on every POST /train request, and is echoed back on the response. It is
// the cross-process correlation contract: the same ID appears in the
// deterministic flight span (-trace-out), so agent- and server-side
// wall-clock records (-wall-out) join back to the simulated flight in
// `fltrace join`. Absent when the request carries flight 0 (the trainer
// was driven outside a flight).
const FlightHeader = "Fednet-Flight"

// errCodecNotAccepted marks a dispatch whose codec the agent refuses;
// ServeHTTP maps it to 415 so the trainer can re-negotiate and retry.
var errCodecNotAccepted = errors.New("codec not accepted")

// errArtifactNotHeld marks a conditional (not-modified) dispatch whose
// ETag the agent no longer holds; ServeHTTP maps it to 412 so the trainer
// forgets the stale delivery and resends the full body.
var errArtifactNotHeld = errors.New("artifact not held")

// agentArtifactCap bounds each agent's decoded-artifact cache (and the
// trainer's per-client mirror of it): an agent rarely holds more than one
// live snapshot's worth of widths, so a few entries cover the live
// artifact plus a stale in-flight tail.
const agentArtifactCap = 4

// instanceCounter makes agent instance IDs unique within a process; the
// random prefix distinguishes processes (an agent restart usually is a new
// process, but tests restart in-process).
var instanceCounter atomic.Int64

// TrainRequest is the server→device dispatch payload.
type TrainRequest struct {
	// SentIndex identifies the dispatched pool member.
	SentIndex int `json:"sent_index"`
	// Codec tags the encoding of State (and of the expected upload).
	// Empty means raw, the pre-codec format.
	Codec string `json:"codec,omitempty"`
	// State is the codec-encoded weight slice of the dispatched model
	// (empty on a NotModified dispatch — the agent already holds it).
	State []byte `json:"state"`
	// ETag content-addresses the dispatched artifact (the encoded form of
	// wire.ArtifactKey: global-snapshot hash, member, codec). The agent
	// caches its decode of State under this tag; empty on dispatches from
	// a trainer without snapshot hashing.
	ETag string `json:"etag,omitempty"`
	// NotModified makes the dispatch a revalidation: State is empty and
	// the agent must train on its cached decode of ETag. An agent that no
	// longer holds the tag answers 412 and the trainer falls back to a
	// full-body dispatch. The conditional request also carries ETag as an
	// If-None-Match header, so the skip is visible at the HTTP layer.
	NotModified bool `json:"not_modified,omitempty"`
	// Train carries the local hyperparameters.
	Train core.TrainConfig `json:"train"`
	// Seed makes local training reproducible.
	Seed int64 `json:"seed"`
}

// TrainResponse is the device→server upload payload.
type TrainResponse struct {
	// Failed reports that no derivable pool member fits the device.
	Failed bool `json:"failed"`
	// GotIndex identifies the pool member the device actually trained.
	GotIndex int `json:"got_index"`
	// Codec tags the encoding of State; delta uploads diff against the
	// dispatched state the agent decoded.
	Codec string `json:"codec,omitempty"`
	// State is the codec-encoded trained weights (empty when Failed).
	State []byte `json:"state,omitempty"`
	// Samples is the local dataset size (the aggregation weight).
	Samples int `json:"samples"`
}

// CodecList is the GET /train negotiation payload: the codec tags the
// agent accepts, in its order of preference, plus the agent's instance ID
// (a fresh ID per construction, so a restart is observable).
type CodecList struct {
	Codecs   []string `json:"codecs"`
	Instance string   `json:"instance,omitempty"`
}

// Agent is the device-side service: it owns a data shard and a device
// resource model, prunes received models to its currently available
// capacity, trains them, and returns the result.
type Agent struct {
	Client *core.Client
	Model  models.Config
	Pool   *prune.Pool
	// Codecs restricts which wire codecs this agent accepts, in order of
	// preference. Nil accepts every registered codec, preferring raw.
	Codecs []string
	// Metrics, when set, times every served request (route, latency,
	// payload bytes) and adds a GET /metrics endpoint to this agent in
	// Prometheus text format — live introspection of a running device
	// fleet. Nil leaves the agent unobserved with no overhead.
	Metrics *obs.Metrics
	// Pprof additionally mounts net/http/pprof under /debug/pprof/ on
	// this agent (opt-in; requires Metrics).
	Pprof bool
	// Wall, when set, appends one obs.WallRecord per served train/negotiate
	// request (side "agent"), keyed by the Fednet-Flight header so the
	// handler time joins the deterministic flight span in `fltrace join`.
	Wall *obs.JSONLWriter
	// Adversary, when enabled, makes this agent act out its client's
	// deterministic behavior draw (core.AdversarySpec.BehaviorOf) — the
	// HTTP mirror of the in-process injection, tampering bit-identically.
	Adversary core.AdversarySpec

	// instance identifies this agent construction; a restarted agent gets
	// a fresh ID, which is how the server notices its negotiation is stale.
	instance string
	// replays is the stale-replay behavior's memory of this agent's client.
	replays core.Replays
	// arts is the decoded-artifact cache (FIFO, agentArtifactCap entries,
	// newest last): the agent's side of the ETag contract. Entries are the
	// agent's decode of a full-body dispatch, keyed by its ETag, and are
	// trained on read-only — a NotModified revalidation trains the cached
	// state without re-downloading or re-decoding anything.
	artMu sync.Mutex
	arts  []agentArtifact
}

// agentArtifact is one cached decoded dispatch.
type agentArtifact struct {
	etag  string
	state nn.State
}

// holdArtifact caches the decoded state under its ETag, mirroring the
// trainer's per-client bookkeeping: re-held tags move to newest, and the
// oldest entry beyond agentArtifactCap is evicted.
func (a *Agent) holdArtifact(etag string, st nn.State) {
	a.artMu.Lock()
	defer a.artMu.Unlock()
	for i, e := range a.arts {
		if e.etag == etag {
			a.arts = append(a.arts[:i], a.arts[i+1:]...)
			break
		}
	}
	a.arts = append(a.arts, agentArtifact{etag: etag, state: st})
	if len(a.arts) > agentArtifactCap {
		a.arts = a.arts[1:]
	}
}

// heldArtifact returns the cached decode for an ETag, if still held.
func (a *Agent) heldArtifact(etag string) (nn.State, bool) {
	a.artMu.Lock()
	defer a.artMu.Unlock()
	for _, e := range a.arts {
		if e.etag == etag {
			return e.state, true
		}
	}
	return nil, false
}

// NewAgent builds a device agent. The pool is rebuilt from the model and
// pool configuration so agents and server agree on member indices.
func NewAgent(client *core.Client, mcfg models.Config, pcfg prune.Config) (*Agent, error) {
	pool, err := prune.BuildPool(mcfg, pcfg)
	if err != nil {
		return nil, err
	}
	return &Agent{
		Client: client, Model: mcfg, Pool: pool,
		instance: fmt.Sprintf("agent-%d-%08x", instanceCounter.Add(1), rand.Int63()),
	}, nil
}

// Instance returns the agent's per-construction instance ID.
func (a *Agent) Instance() string { return a.instance }

// SupportedCodecs returns the codec tags this agent accepts, in
// preference order.
func (a *Agent) SupportedCodecs() []string {
	if a.Codecs != nil {
		return a.Codecs
	}
	tags := []string{wire.TagRaw}
	for _, t := range wire.Tags() {
		if t != wire.TagRaw {
			tags = append(tags, t)
		}
	}
	return tags
}

// acceptsCodec reports whether tag is in the agent's accept list.
func (a *Agent) acceptsCodec(tag string) bool {
	if tag == "" {
		tag = wire.TagRaw
	}
	for _, t := range a.SupportedCodecs() {
		if t == tag {
			return true
		}
	}
	return false
}

// countingWriter tallies response body bytes for the request metrics.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// ServeHTTP handles POST /train (a dispatch) and GET /train (codec
// negotiation: the supported tag list). With Metrics set it additionally
// serves GET /metrics (Prometheus text exposition), optionally the pprof
// endpoints, and times every train/negotiate request.
func (a *Agent) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a.Metrics != nil {
		switch {
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/metrics"):
			w.Header().Set(instanceHeader, a.instance)
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			a.Metrics.WritePrometheus(w)
			return
		case strings.HasPrefix(r.URL.Path, "/debug/pprof"):
			// Profile endpoints are opt-in per agent; without the opt-in the
			// path 404s rather than falling through to the train handler.
			if a.Pprof {
				obs.Handler(a.Metrics, true).ServeHTTP(w, r)
			} else {
				http.NotFound(w, r)
			}
			return
		}
	}
	if a.Metrics == nil && a.Wall == nil {
		a.serveTrain(w, r)
		return
	}
	route := "train"
	if r.Method == http.MethodGet {
		route = "negotiate"
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	a.serveTrain(cw, r)
	secs := time.Since(start).Seconds()
	if a.Metrics != nil {
		a.Metrics.HTTPRequest(route, secs, r.ContentLength, cw.n)
	}
	if a.Wall != nil {
		flight, _ := strconv.ParseInt(r.Header.Get(FlightHeader), 10, 64)
		reqBytes := r.ContentLength
		if reqBytes < 0 {
			reqBytes = 0 // chunked: length unknown at the header
		}
		_ = a.Wall.Record(obs.WallRecord{
			Kind: obs.WallKind, Flight: flight, Side: "agent", Route: route,
			Client: -1, Instance: a.instance, Seconds: secs,
			ReqBytes: reqBytes, RespBytes: cw.n,
		})
	}
}

// serveTrain is the train/negotiate handler body.
func (a *Agent) serveTrain(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(instanceHeader, a.instance)
	if fl := r.Header.Get(FlightHeader); fl != "" {
		// Echo the flight ID so the server can assert the correlation
		// contract end to end.
		w.Header().Set(FlightHeader, fl)
	}
	if r.Method == http.MethodGet {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(CodecList{Codecs: a.SupportedCodecs(), Instance: a.instance}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "fednet: POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req TrainRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := a.Train(req)
	if err != nil {
		// A codec this agent does not speak is a negotiation problem, not a
		// server error: 415 tells the trainer to re-negotiate and retry
		// (the agent restarted with a different codec set).
		if errors.Is(err, errCodecNotAccepted) {
			http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
			return
		}
		// A revalidation for an artifact this agent no longer holds is a
		// cache-coherence problem, not a server error: 412 tells the
		// trainer to forget the delivery and resend the full body.
		if errors.Is(err, errArtifactNotHeld) {
			http.Error(w, err.Error(), http.StatusPreconditionFailed)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Train executes one dispatch on this device: resource-aware pruning of
// the received model, then the shared device step (core.DeviceStep: local
// SGD, adversarial behavior, upload encoded in the request's codec).
func (a *Agent) Train(req TrainRequest) (TrainResponse, error) {
	if req.SentIndex < 0 || req.SentIndex >= len(a.Pool.Members) {
		return TrainResponse{}, fmt.Errorf("fednet: sent index %d outside pool", req.SentIndex)
	}
	if !a.acceptsCodec(req.Codec) {
		return TrainResponse{}, fmt.Errorf("fednet: codec %q %w (supported: %v)", req.Codec, errCodecNotAccepted, a.SupportedCodecs())
	}
	codec, err := wire.ByTag(req.Codec)
	if err != nil {
		return TrainResponse{}, fmt.Errorf("fednet: %w", err)
	}
	sent := a.Pool.Members[req.SentIndex]
	capacity := a.Client.Device.Capacity()
	got, ok := a.Pool.LargestFit(sent, capacity)
	if !ok {
		return TrainResponse{Failed: true}, nil
	}
	var st nn.State
	if req.NotModified {
		// Revalidation: no body crossed the wire; train on the cached
		// decode of the tagged artifact. Refusing with errArtifactNotHeld
		// (→ 412) when the tag was evicted lets the trainer recover with a
		// full-body resend instead of failing the flight.
		st, ok = a.heldArtifact(req.ETag)
		if !ok {
			return TrainResponse{}, fmt.Errorf("fednet: etag %s %w", req.ETag, errArtifactNotHeld)
		}
	} else {
		var err error
		st, err = codec.Decode(req.State, nil)
		if err != nil {
			return TrainResponse{}, fmt.Errorf("fednet: decode dispatched state: %w", err)
		}
		if req.ETag != "" {
			a.holdArtifact(req.ETag, st)
		}
	}
	// The upload diffs against the dispatched state as this device
	// decoded it — the reference the server reconstructs the same way.
	step := core.DeviceStep{Model: a.Model, Train: req.Train, Adversary: a.Adversary,
		Codec: codec, Replays: &a.replays}
	_, up, err := step.Run(core.TrainRequest{Client: a.Client.ID, Sent: sent, State: st, Seed: req.Seed},
		got, a.Client.Data)
	if err != nil {
		return TrainResponse{}, err
	}
	return TrainResponse{GotIndex: got.Index, Codec: codec.Tag(), State: up, Samples: a.Client.Data.Len()}, nil
}

// HTTPTrainer implements core.Trainer by POSTing dispatches to per-client
// agent URLs.
type HTTPTrainer struct {
	// URLs maps client ID to the agent's /train endpoint.
	URLs []string
	// Pool resolves returned member indices.
	Pool *prune.Pool
	// TrainConfig is forwarded to agents.
	TrainConfig core.TrainConfig
	// HTTPClient defaults to a client with a 5-minute timeout.
	HTTPClient *http.Client
	// Codec encodes dispatches (nil means raw). Negotiate can override it
	// per client with what each agent actually supports.
	Codec wire.Codec
	// Metrics, when set, times every dispatch round trip (route
	// "dispatch": wall-clock latency, downlink/uplink payload bytes) —
	// the server-side view of the fleet's HTTP traffic. Wall-clock only,
	// so it never perturbs the simulation's virtual-time determinism.
	Metrics *obs.Metrics
	// Wall, when set, appends one obs.WallRecord per dispatch round trip
	// (side "server"), keyed by the request's flight ID. Like Metrics, it
	// observes wall time only and never perturbs virtual-time determinism.
	Wall *obs.JSONLWriter
	// FullDownlinks disables If-None-Match revalidation: every dispatch
	// carries the full encoded body even when the agent should already
	// hold the artifact. The artifact store still serves the bytes
	// (encode-once is unaffected); only the bodyless skip is suppressed.
	// Parity and debugging knob — a full-body run must be bit-identical
	// to a revalidating one. Set before training starts.
	FullDownlinks bool

	// mu guards the negotiation state below; dispatches to different
	// clients run concurrently and may re-negotiate mid-round.
	mu sync.Mutex
	// perClient holds negotiated per-agent codecs, keyed by client ID.
	perClient map[int]wire.Codec
	// preferred remembers Negotiate's codec ranking so a detected agent
	// restart can re-run the same negotiation for one client.
	preferred []wire.Codec
	// instances remembers each agent's instance ID; a changed ID means the
	// agent restarted and its negotiation may be stale.
	instances map[int]string
	// artifacts is the encode-once store for downlink dispatches, keyed by
	// (snapshot hash, member, codec): every dispatch of a member within one
	// snapshot serves the same cached bytes, and the artifact's decoded
	// state doubles as the uplink reference for delta uploads — content
	// addressing makes a stale hit impossible no matter how the trainer is
	// driven, with no per-round eviction hook needed.
	artifacts *wire.ArtifactStore
	// delivered mirrors, per client, the FIFO of artifact ETags the agent's
	// cache should hold (newest last, agentArtifactCap deep): a dispatch
	// whose tag is mirrored here goes out as a bodyless If-None-Match
	// revalidation. The mirror is a belief, not a guarantee — an agent
	// answers 412 when it has lost the tag (restart, shared agent), and the
	// trainer forgets the delivery and resends the full body.
	delivered map[int][]string
}

// artStore returns the trainer's artifact store, creating it on first
// use so zero-value trainers (tests build them as literals) work.
func (t *HTTPTrainer) artStore() *wire.ArtifactStore {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.artifacts == nil {
		t.artifacts = wire.NewArtifactStore(0)
	}
	return t.artifacts
}

// Artifacts exposes the downlink artifact store (for tests and stats).
func (t *HTTPTrainer) Artifacts() *wire.ArtifactStore { return t.artStore() }

// deliveredHas reports whether the agent for clientID is believed to
// hold the artifact.
func (t *HTTPTrainer) deliveredHas(clientID int, etag string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.delivered[clientID] {
		if e == etag {
			return true
		}
	}
	return false
}

// markDelivered records a full-body delivery, mirroring the agent's FIFO
// eviction exactly (see Agent.holdArtifact).
func (t *HTTPTrainer) markDelivered(clientID int, etag string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.delivered == nil {
		t.delivered = map[int][]string{}
	}
	held := t.delivered[clientID]
	for i, e := range held {
		if e == etag {
			held = append(held[:i], held[i+1:]...)
			break
		}
	}
	held = append(held, etag)
	if len(held) > agentArtifactCap {
		held = held[1:]
	}
	t.delivered[clientID] = held
}

// forgetDelivered drops one mirrored delivery (the agent answered 412).
func (t *HTTPTrainer) forgetDelivered(clientID int, etag string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	held := t.delivered[clientID]
	for i, e := range held {
		if e == etag {
			t.delivered[clientID] = append(held[:i], held[i+1:]...)
			return
		}
	}
}

// NewHTTPTrainer builds a trainer for the given agent endpoints.
func NewHTTPTrainer(urls []string, pool *prune.Pool, train core.TrainConfig) *HTTPTrainer {
	return &HTTPTrainer{
		URLs: urls, Pool: pool, TrainConfig: train,
		HTTPClient: &http.Client{Timeout: 5 * time.Minute},
	}
}

// codecFor resolves the codec for one client: negotiated first, then the
// trainer default, then raw.
func (t *HTTPTrainer) codecFor(clientID int) wire.Codec {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.perClient[clientID]; ok {
		return c
	}
	if t.Codec != nil {
		return t.Codec
	}
	return wire.Raw{}
}

// Negotiate asks every agent (GET on its /train URL) for its supported
// codecs and records, per client, the first of preferred that the agent
// accepts. Clients whose agents support none of preferred — or whose
// negotiation request fails — fall back to raw, the baseline every agent
// speaks, NOT the trainer default (which the agent might reject and turn
// a transient negotiation failure into a round-fatal dispatch error).
// Negotiation is an optimisation, not a requirement, so per-agent errors
// do not abort it. The preference ranking is remembered: when a later
// dispatch detects that an agent restarted (new instance ID, or a 415
// codec rejection), that one client is re-negotiated automatically.
func (t *HTTPTrainer) Negotiate(preferred ...wire.Codec) {
	t.mu.Lock()
	t.preferred = preferred
	t.mu.Unlock()
	for id := range t.URLs {
		t.negotiateClient(id)
	}
}

// negotiateClient (re-)negotiates the codec for one client and records the
// agent's instance ID.
func (t *HTTPTrainer) negotiateClient(id int) {
	chosen := wire.Codec(wire.Raw{})
	instance := ""
	t.mu.Lock()
	preferred := t.preferred
	t.mu.Unlock()
	if httpResp, err := t.HTTPClient.Get(t.URLs[id]); err == nil {
		var list CodecList
		err = json.NewDecoder(httpResp.Body).Decode(&list)
		httpResp.Body.Close()
		if err == nil && httpResp.StatusCode == http.StatusOK {
			instance = list.Instance
			supported := make(map[string]bool, len(list.Codecs))
			for _, tag := range list.Codecs {
				supported[tag] = true
			}
			for _, c := range preferred {
				if supported[c.Tag()] {
					chosen = c
					break
				}
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.perClient == nil {
		t.perClient = make(map[int]wire.Codec, len(t.URLs))
		t.instances = make(map[int]string, len(t.URLs))
	}
	t.perClient[id] = chosen
	t.instances[id] = instance
	// A (re-)negotiated agent is treated as a fresh cache: anything we
	// believed delivered may be gone (restart), so fall back to full
	// bodies until deliveries are re-observed.
	delete(t.delivered, id)
}

// noteInstance records the instance ID seen on a response and reports
// whether it differs from the previously recorded one (agent restart).
func (t *HTTPTrainer) noteInstance(clientID int, instance string) (restarted bool) {
	if instance == "" {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.instances == nil {
		t.instances = make(map[int]string, len(t.URLs))
	}
	prev, known := t.instances[clientID]
	t.instances[clientID] = instance
	return known && prev != "" && prev != instance
}

// Train implements core.Trainer over HTTP. The request's flight ID rides
// along as the Fednet-Flight header (omitted for flight 0), so agent-side
// wall records correlate with the deterministic flight span. Its snapshot
// hash keys the downlink artifact, so the trainer's ETags agree with the
// ledger's encode-once accounting; snapshot 0 falls back to hashing the
// dispatched state — still a sound content address, since extraction is
// deterministic. If the agent answers 415 (it restarted with a different
// codec set and no longer speaks the negotiated encoding), the trainer
// re-negotiates that one client and retries the dispatch once with the
// freshly agreed codec.
func (t *HTTPTrainer) Train(req core.TrainRequest) (core.TrainResult, error) {
	if req.Client < 0 || req.Client >= len(t.URLs) {
		return core.TrainResult{}, fmt.Errorf("fednet: no agent URL for client %d", req.Client)
	}
	if req.Snapshot == 0 {
		req.Snapshot = nn.HashState(req.State)
	}
	res, status, err := t.dispatchOnce(req, true)
	if status == http.StatusPreconditionFailed {
		// The agent lost the artifact we believed delivered (dispatchOnce
		// already forgot the mirror entry): resend with the full body.
		res, status, err = t.dispatchOnce(req, false)
	}
	if status == http.StatusUnsupportedMediaType {
		t.negotiateClient(req.Client)
		res, _, err = t.dispatchOnce(req, true)
	}
	return res, err
}

// dispatchOnce performs one POST round trip with the currently negotiated
// codec, returning the HTTP status for the retry decision. The downlink
// body comes from the artifact store — one encode per (snapshot, member,
// codec), shared by every client — and goes out bodyless (If-None-Match)
// when allowCond is set and the client is believed to hold the artifact.
func (t *HTTPTrainer) dispatchOnce(req core.TrainRequest, allowCond bool) (core.TrainResult, int, error) {
	clientID := req.Client
	codec := t.codecFor(clientID)
	key := wire.ArtifactKey{Snapshot: req.Snapshot, Member: req.Sent.Index, Codec: codec.Tag()}
	art, err := t.artStore().Get(key, codec, func() (nn.State, error) { return req.State, nil })
	if err != nil {
		return core.TrainResult{}, 0, err
	}
	etag := key.ETag()
	conditional := allowCond && !t.FullDownlinks && t.deliveredHas(clientID, etag)
	treq := TrainRequest{
		SentIndex: req.Sent.Index, Codec: codec.Tag(), ETag: etag,
		Train: t.TrainConfig, Seed: req.Seed,
	}
	if conditional {
		treq.NotModified = true
	} else {
		treq.State = art.Bytes
	}
	reqBody, err := json.Marshal(treq)
	if err != nil {
		return core.TrainResult{}, 0, err
	}
	httpReq, err := http.NewRequest(http.MethodPost, t.URLs[clientID], bytes.NewReader(reqBody))
	if err != nil {
		return core.TrainResult{}, 0, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if conditional {
		httpReq.Header.Set("If-None-Match", etag)
	}
	if req.Flight > 0 {
		httpReq.Header.Set(FlightHeader, strconv.FormatInt(req.Flight, 10))
	}
	start := time.Now()
	httpResp, err := t.HTTPClient.Do(httpReq)
	if err != nil {
		return core.TrainResult{}, 0, fmt.Errorf("fednet: dispatch to client %d: %w", clientID, err)
	}
	defer httpResp.Body.Close()
	if t.Metrics != nil || t.Wall != nil {
		defer func() {
			secs := time.Since(start).Seconds()
			if t.Metrics != nil {
				t.Metrics.HTTPRequest("dispatch", secs, int64(len(reqBody)), httpResp.ContentLength)
			}
			if t.Wall != nil {
				respBytes := httpResp.ContentLength
				if respBytes < 0 {
					respBytes = 0 // chunked: length unknown at the header
				}
				_ = t.Wall.Record(obs.WallRecord{
					Kind: obs.WallKind, Flight: req.Flight, Side: "server", Route: "train",
					Client: clientID, Instance: httpResp.Header.Get(instanceHeader),
					Seconds: secs, ReqBytes: int64(len(reqBody)),
					RespBytes: respBytes, Status: httpResp.StatusCode,
				})
			}
		}()
	}
	if httpResp.StatusCode != http.StatusOK {
		if httpResp.StatusCode == http.StatusPreconditionFailed {
			// The agent no longer holds the artifact we revalidated: the
			// mirror was stale. Forget it; the caller resends the body.
			t.forgetDelivered(clientID, etag)
		}
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 1024))
		return core.TrainResult{}, httpResp.StatusCode,
			fmt.Errorf("fednet: client %d returned %s: %s", clientID, httpResp.Status, msg)
	}
	// A successful response from a different agent instance means the
	// agent restarted since negotiation (it still accepted this codec, so
	// the dispatch stands) — refresh its negotiation so the NEXT dispatch
	// uses the codec the new instance actually prefers.
	if t.noteInstance(clientID, httpResp.Header.Get(instanceHeader)) {
		t.negotiateClient(clientID)
	}
	var resp TrainResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return core.TrainResult{}, httpResp.StatusCode, err
	}
	// SentBytes is the LOGICAL artifact size on every path: a not-modified
	// dispatch accounts the artifact it revalidated, so the ledger (and
	// everything derived from it) is bit-identical whether or not the body
	// was actually skipped. The skip shows up in the span's DownPath and
	// the fl_down_bytes_total{path=...} split, not in the sizes.
	sentBytes := int64(len(art.Bytes))
	if resp.Failed {
		return core.TrainResult{Failed: true, SentBytes: sentBytes, CodecTag: codec.Tag()}, httpResp.StatusCode, nil
	}
	if !conditional {
		// The agent decoded and cached the full-body artifact: mirror the
		// hold (revalidations leave the agent's FIFO order untouched, so
		// they leave the mirror untouched too).
		t.markDelivered(clientID, etag)
	}
	// From here on the envelope is well-formed HTTP+JSON from a live agent:
	// anything wrong with its *content* — a member index outside the pool,
	// an unknown or undecodable inner payload, a non-positive sample count
	// — is the agent's fault, not the transport's. Surface it as a
	// Rejected result so the flight ledgers a rejection and the round
	// completes; erroring here would fail the whole run, and a non-200
	// status would trigger a pointless re-negotiation.
	reject := func(got prune.Submodel, tag string) (core.TrainResult, int, error) {
		return core.TrainResult{
			Rejected: true, Got: got, SentBytes: sentBytes,
			GotBytes: int64(len(resp.State)), CodecTag: tag,
		}, httpResp.StatusCode, nil
	}
	if resp.GotIndex < 0 || resp.GotIndex >= len(t.Pool.Members) {
		return reject(t.Pool.Smallest(), codec.Tag())
	}
	got := t.Pool.Members[resp.GotIndex]
	upCodec, err := wire.ByTag(resp.Codec)
	if err != nil {
		return reject(got, codec.Tag())
	}
	var ref nn.State
	if upCodec.UsesRef() {
		// The agent diffed against its decode of the dispatched artifact —
		// exactly the artifact's cached round-trip state, with no extra
		// decode on either side.
		ref = art.State
	}
	st, err := upCodec.Decode(resp.State, ref)
	if err != nil {
		return reject(got, upCodec.Tag())
	}
	if resp.Samples <= 0 {
		return reject(got, upCodec.Tag())
	}
	return core.TrainResult{
		State:     st,
		Samples:   resp.Samples,
		Got:       got,
		SentBytes: sentBytes,
		GotBytes:  int64(len(resp.State)),
		CodecTag:  upCodec.Tag(),
	}, httpResp.StatusCode, nil
}

var _ core.Trainer = (*HTTPTrainer)(nil)
