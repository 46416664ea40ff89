package fednet

import (
	"fmt"
	"net"
	"net/http"
	"strings"

	"adaptivefl/internal/core"
	"adaptivefl/internal/models"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/prune"
)

// Cluster is the real-transport half of the sched×fednet bridge: one
// loopback HTTP agent server per client, plus an HTTPTrainer pointed at
// them. Handing Cluster.Trainer to core.Config.Trainer makes every
// dispatch a real POST /train round trip — the event engine then prices
// *time* from its virtual clock and traces while the *bytes* it charges
// are the actual encoded payloads that crossed the loopback — so a
// simulation run exercises the same agent code, codec negotiation and
// re-negotiation paths a physical AIoT deployment would.
//
// Agents listen on ephemeral 127.0.0.1 ports; Close shuts them all down.
// The agents share the caller's *core.Client values (data shard + device),
// mirroring the paper's test-bed where the device owns its resource state:
// capacity draws happen inside the agent, one per dispatch, exactly where
// an in-process flight's plan (core.Server.Plan) would draw them.
type Cluster struct {
	Agents  []*Agent
	URLs    []string
	Trainer *HTTPTrainer

	servers   []*http.Server
	listeners []net.Listener
}

// NewCluster builds and starts one agent server per client and the
// trainer wired to them. The pool is rebuilt from the model and pool
// configs so agents and server agree on member indices. On error,
// anything already started is shut down.
func NewCluster(clients []*core.Client, mcfg models.Config, pcfg prune.Config, train core.TrainConfig) (*Cluster, error) {
	cl := &Cluster{}
	for _, c := range clients {
		agent, err := NewAgent(c, mcfg, pcfg)
		if err != nil {
			cl.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("fednet: agent listener: %w", err)
		}
		srv := &http.Server{Handler: agent}
		go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
		cl.Agents = append(cl.Agents, agent)
		cl.URLs = append(cl.URLs, "http://"+ln.Addr().String()+"/train")
		cl.servers = append(cl.servers, srv)
		cl.listeners = append(cl.listeners, ln)
	}
	pool, err := prune.BuildPool(mcfg, pcfg)
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.Trainer = NewHTTPTrainer(cl.URLs, pool, train)
	return cl, nil
}

// SetMetrics attaches per-agent registries and a trainer registry: each
// agent starts serving GET /metrics on its own port (its device-local
// view of the fleet), and the trainer times its dispatch round trips into
// the server-side registry. agents(i) supplies agent i's registry — pass
// a shared one for a fleet-wide rollup or fresh ones for per-device
// scrapes; nil leaves that agent unobserved.
func (cl *Cluster) SetMetrics(server *obs.Metrics, agents func(i int) *obs.Metrics) {
	if cl.Trainer != nil {
		cl.Trainer.Metrics = server
	}
	if agents == nil {
		return
	}
	for i, a := range cl.Agents {
		a.Metrics = agents(i)
	}
}

// SetWallLog points the trainer and every agent at one shared wall-clock
// record writer (obs.WallRecord JSONL, -wall-out): the server side logs
// each dispatch round trip and the agent side each served request, both
// keyed by the Fednet-Flight header so `fltrace join` can reunite them
// with the deterministic flight spans. JSONLWriter serialises internally,
// so one writer is safe across all agents and concurrent dispatches.
//
// SetWallLog may be called while flights are training: it waits for the
// trainer's dispatches in flight to finish and holds new ones back while
// it attaches the writer, so every dispatch is recorded on both sides or
// on neither.
func (cl *Cluster) SetWallLog(w *obs.JSONLWriter) {
	if cl.Trainer != nil {
		cl.Trainer.trains.Lock()
		defer cl.Trainer.trains.Unlock()
		cl.Trainer.wall.Store(w)
	}
	for _, a := range cl.Agents {
		a.wall.Store(w)
	}
}

// SetAdversary arms every agent with the adversarial spec: each agent
// draws its own client's behavior from the spec's deterministic hash
// streams, so the attacker set matches an in-process run with the same
// (seed, spec) pair exactly.
func (cl *Cluster) SetAdversary(spec core.AdversarySpec) {
	for _, a := range cl.Agents {
		a.Adversary = spec
	}
}

// MetricsURL returns agent i's /metrics endpoint.
func (cl *Cluster) MetricsURL(i int) string {
	return strings.TrimSuffix(cl.URLs[i], "/train") + "/metrics"
}

// Close shuts every agent server down. Safe on a partially built cluster.
func (cl *Cluster) Close() {
	for _, srv := range cl.servers {
		srv.Close()
	}
}
