package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
	"adaptivefl/internal/tensor"
	"adaptivefl/internal/wire"
)

// Config assembles an AdaptiveFL experiment.
type Config struct {
	Model models.Config
	Pool  prune.Config
	RL    rl.Config
	// Mode is the client-selection strategy (RL-CS by default; RL-C, RL-S
	// and Random are the paper's Figure 5 ablations).
	Mode rl.Mode
	// Greedy dispatches the unpruned L_1 to every slot instead of random
	// pool members (the "AdaptiveFL+Greedy" ablation).
	Greedy bool
	// ClientsPerRound is K, the number of dispatches per round. NewServer
	// checks it against the population; the engine that drives the server
	// takes its own K (sched.Config.K), which callers set to the same
	// value.
	ClientsPerRound int
	Train           TrainConfig
	Seed            int64
	// Parallelism bounds concurrent local trainers (Algorithm 1's
	// parallel for). 0 means GOMAXPROCS. The bound lives in the server's
	// Executor, which the event-driven scheduler shares by default.
	Parallelism int
	// Trainer overrides how dispatches are executed. Nil uses in-process
	// training on the client's dataset (Server.Plan, then DeviceStep);
	// internal/fednet provides an HTTP-backed implementation for networked
	// device agents.
	Trainer Trainer
	// Codec, when set, routes the in-process training path through the
	// wire encoding both ways — dispatches train on the decoded (possibly
	// lossy) weights and uploads are re-decoded before aggregation — so a
	// simulation measures exactly the model quality a networked
	// deployment with that codec would see, and the round ledger carries
	// real encoded byte counts. Nil keeps the exact float64 path.
	Codec wire.Codec
	// Agg selects the aggregation policy (agg.ParsePolicy grammar:
	// mean|trim|krum|clip, clip composable via "+"). Empty is "mean", the
	// paper's weighted prefix mean, with no clipping. Robust
	// policies tolerate Byzantine updates at commit time; clip bounds each
	// update's influence at record time and ledgers it as Clipped.
	Agg string
	// Adversary injects deterministic per-client adversarial behaviors
	// into the in-process training path (ParseAdversary grammar; the zero
	// spec is fully honest). Networked runs configure their agents
	// instead (fednet.Cluster.SetAdversary) with the same spec and seed,
	// so both paths corrupt the same clients identically.
	Adversary AdversarySpec
	// Observer receives flight/commit spans and occupancy metrics
	// (internal/obs). Nil disables observability at zero cost on the hot
	// path; an attached observer is a pure sink and never perturbs the
	// run (sched's bit-identity property test pins this).
	Observer *obs.Observer
}

// TrainResult is a flight's one result record: the trained submodel
// state, the sample count used as the aggregation weight, which pool
// member the device actually trained (after on-device pruning), and
// whether the device failed to fit any derivable member. Server.Plan
// forecasts it before training (Got, Failed, SentBytes, CodecTag);
// execution fills the rest. A failed result carries no upload: the server
// ledgers it against the sent member and reads only SentBytes and
// CodecTag.
type TrainResult struct {
	State   nn.State
	Samples int
	Got     prune.Submodel
	Failed  bool
	// SentBytes / GotBytes are the encoded payload sizes that crossed the
	// wire (0 when the trainer moved raw in-memory states).
	SentBytes, GotBytes int64
	// CodecTag names the wire codec the dispatch moved through (empty for
	// raw in-memory transfers). Networked trainers report the codec they
	// actually negotiated per agent, so the ledger shows real encodings.
	CodecTag string
	// Rejected marks an upload that arrived but whose payload was
	// undecodable or invalid (corrupt codec bytes, non-finite values):
	// the bytes crossed the wire but the state must not be aggregated.
	// State is nil when set.
	Rejected bool
}

// TrainRequest is one dispatch handed to a Trainer.
type TrainRequest struct {
	// Flight is the dispatch's flight ID (Flight.ID); 0 means the
	// request was made outside a flight. It is observability metadata only
	// (fednet's Fednet-Flight header), never an input to training.
	Flight int64
	Client int
	// Sent is the dispatched pool member and State its weight slice.
	Sent  prune.Submodel
	State nn.State
	// Snapshot is the content hash of the global snapshot State was cut
	// from (0 when the server is not hashing). A trainer that
	// content-addresses its dispatches keys its artifacts by it, so they
	// agree with the server's dispatch attribution; it is a cache key,
	// never an input to training.
	Snapshot uint64
	// Seed makes local training reproducible.
	Seed int64
}

// Trainer executes Steps 4-5 of Algorithm 1 for one dispatch on a device
// the server does not simulate (internal/fednet's HTTP agents): on-device
// resource-aware pruning of the received submodel followed by local
// training. The device owns the pruning decision, so a trainer's flights
// cannot be planned.
type Trainer interface {
	Train(req TrainRequest) (TrainResult, error)
}

// DownlinkSizer is a Trainer that can name, before training, a lower
// bound on a dispatch's downlink size: whatever codec the dispatch ends
// on, the SentBytes it ledgers is at least the returned size. Zero makes
// no promise. state supplies the dispatched weights, a fresh copy on
// every call, which the sizer may keep or overwrite; it is called only
// when the size is not already known.
type DownlinkSizer interface {
	DownlinkBytes(req TrainRequest, state func() (nn.State, error)) (int64, error)
}

// Dispatch records one slot of one round, for communication accounting.
// Record sets its outcome flags; Label reads them into the dispatch's one
// outcome, and every count of outcomes (RoundStats, sched's commits, the
// ledger summary) reads that label.
type Dispatch struct {
	Client    int
	Sent, Got prune.Submodel
	Failed    bool // device could not fit any derivable pool member
	// Late marks an upload that arrived after its round had already closed
	// (deadline scheduling): the bytes crossed the wire but the result was
	// not aggregated, so the dispatch counts as communication waste.
	Late bool
	// LateReused marks a late upload that was banked instead of discarded
	// and merged into a later aggregation under a staleness discount
	// (sched's deadline-reuse policy): the bytes were late but not wasted,
	// so the returned parameters count as useful work in the ledger.
	// Always set together with Late.
	LateReused bool
	// Dropped marks a dispatch whose client went offline before the upload
	// completed: nothing came back at all.
	Dropped bool
	// Rejected marks an upload that arrived but was refused at the door:
	// the payload failed to decode (corrupt codec bytes), carried
	// non-finite values, or claimed a non-positive sample weight. The
	// uplink bytes crossed the wire (they are ledgered) but nothing was
	// aggregated — the hardened-decode analogue of Late waste.
	Rejected bool
	// Clipped marks a merged update whose delta exceeded the norm-clipping
	// policy's bound and was scaled down before aggregation (Config.Agg
	// "clip"). The update still did useful work — it rides with Merged the
	// way LateReused rides with Late.
	Clipped bool
	// TrainSkipped marks a dispatch whose local training never ran because
	// its result could not be observed (the flight's dropout was already
	// sealed when it was priced — lazy execution). The eager engine used to
	// burn training compute on exactly these dispatches.
	TrainSkipped bool
	// Codec is the wire codec tag the dispatch moved through (empty when
	// the trainer moved raw in-memory states).
	Codec string
	// DownPath classifies how the downlink artifact was served (obs.Down*
	// label; empty when the server is not hashing snapshots). SentBytes
	// stays the logical artifact size on every path — a not-modified
	// dispatch still accounts the artifact it revalidated.
	DownPath string
	// SentBytes / GotBytes are real encoded payload sizes when the round
	// moved models through a wire codec (0 otherwise). testbed.Sim
	// prefers these over parameter-count estimates.
	SentBytes, GotBytes int64
}

// Label returns the dispatch's outcome as an obs.Outcome* label, in the
// precedence docs/ROBUST.md fixes: Dropped > Failed > Rejected >
// LateReused > Late > Clipped > Merged. It is the one place that order is
// decided; every dispatch wears exactly one label.
func (d Dispatch) Label() string {
	switch {
	case d.Dropped:
		return obs.OutcomeDropped
	case d.Failed:
		return obs.OutcomeFailed
	case d.Rejected:
		return obs.OutcomeRejected
	case d.LateReused:
		return obs.OutcomeLateReused
	case d.Late:
		return obs.OutcomeLate
	case d.Clipped:
		return obs.OutcomeClipped
	}
	return obs.OutcomeMerged
}

// RoundStats aggregates one round's communication ledger. Its outcome
// counts census the dispatches by Label.
type RoundStats struct {
	Round      int
	Dispatches []Dispatch
	// SentParams / ReturnedParams sum trainable parameter counts of the
	// dispatched and returned models (the unit behind the paper's
	// communication-waste rate).
	SentParams, ReturnedParams int64
	// SentBytes / ReturnedBytes sum the encoded payload sizes (0 when no
	// codec was in play).
	SentBytes, ReturnedBytes int64
	// TrainSkipped counts dispatches whose local training was skipped
	// because the result was provably unobservable (see
	// Dispatch.TrainSkipped).
	TrainSkipped int
	// LateReused counts late uploads banked and merged into this
	// aggregation instead of being discarded (see Dispatch.LateReused).
	LateReused int
	// Rejected counts uploads refused at the door (see Dispatch.Rejected):
	// bytes ledgered, parameters not.
	Rejected int
	// Clipped counts merged updates whose delta was norm-clipped before
	// aggregation (see Dispatch.Clipped).
	Clipped int
	// Merged counts fresh merges, clipped ones included (Clipped ⊆
	// Merged); Late counts discarded late uploads; Dropped and Failed count
	// dispatches that returned nothing.
	Merged, Late, Dropped, Failed int
	// DownEncodedOnce / DownReserved / DownNotModified census the
	// dispatches by downlink serving path (see Dispatch.DownPath; all zero
	// when the server is not hashing snapshots). DownEncodedOnce bounds
	// the encode CPU the aggregation cost its cohort: at most one per
	// (member, codec) however large the cohort.
	DownEncodedOnce, DownReserved, DownNotModified int
}

// Add appends d to the ledger, counts it under its Label and folds it into
// the round totals. Failed and dropped dispatches waste the full sent
// size; rejected and late uploads moved bytes over the wire but count no
// returned parameters (they were not aggregated, so they are waste in the
// paper's metric) — unless a late upload was banked and reused, in which
// case the parameters did useful work.
func (st *RoundStats) Add(d Dispatch) {
	st.Dispatches = append(st.Dispatches, d)
	st.SentParams += d.Sent.Size
	st.SentBytes += d.SentBytes
	switch d.DownPath {
	case obs.DownEncodedOnce:
		st.DownEncodedOnce++
	case obs.DownReserved:
		st.DownReserved++
	case obs.DownNotModified:
		st.DownNotModified++
	}
	if d.TrainSkipped {
		st.TrainSkipped++
	}
	returned, useful := true, false
	switch d.Label() {
	case obs.OutcomeDropped:
		st.Dropped++
		returned = false
	case obs.OutcomeFailed:
		st.Failed++
		returned = false
	case obs.OutcomeRejected:
		st.Rejected++
	case obs.OutcomeLate:
		st.Late++
	case obs.OutcomeLateReused:
		st.LateReused++
		useful = true
	case obs.OutcomeClipped:
		st.Clipped++
		st.Merged++
		useful = true
	case obs.OutcomeMerged:
		st.Merged++
		useful = true
	}
	if returned {
		st.ReturnedBytes += d.GotBytes
	}
	if useful {
		st.ReturnedParams += d.Got.Size
	}
}

// Server is the AdaptiveFL cloud server.
type Server struct {
	cfg    Config
	pool   *prune.Pool
	tables *rl.Tables
	pop    Population
	global nn.State
	rng    *rand.Rand
	round  int
	stats  []RoundStats

	// version counts aggregations applied to the global model; each
	// in-flight dispatch anchors to the version it was cut from, which is
	// what staleness-aware (semi-asynchronous) aggregation discounts by.
	version int
	// snap is the content hash (nn.HashState) of the current global
	// snapshot — the first component of every downlink artifact key and
	// the value the fednet ETag derives from. Recomputed once per commit
	// (commitSnapshot), never per dispatch. Zero when hashOn is false.
	snap uint64
	// hashOn gates snapshot hashing and dispatch attribution: on whenever
	// dispatches move through an encoding (an in-process codec or a custom
	// trainer that does its own wire work). The raw in-memory path skips
	// the hash — there is no artifact to address.
	hashOn bool
	// artifacts memoises the in-process codec's encoded dispatches across
	// snapshots (nil without a codec; custom trainers hold their own
	// store). One encode per (snapshot, member, codec), shared by every
	// cohort client.
	artifacts *wire.ArtifactStore
	// downMembers / downClients attribute each dispatch's downlink serving
	// path for the current snapshot (reset by commitSnapshot, mutated under
	// mu by OpenFlight): downMembers marks members already encoded this
	// snapshot, downClients marks (client, member) pairs already delivered.
	downMembers map[int]bool
	downClients map[downKey]bool
	// inflight holds dispatches that have been issued but not yet released
	// (collected, dropped, or cancelled), keyed by flight ID.
	inflight map[int64]*Flight
	nextID   int64
	mu       sync.Mutex

	// exec bounds this server's concurrent local trainings; the
	// event-driven scheduler executes through it by default.
	exec *Executor

	// aggPolicy/clip are the parsed Config.Agg policy: aggPolicy is never
	// nil (agg.Mean{} when Agg is empty); clip is nil without a "clip"
	// term.
	aggPolicy agg.Policy
	clip      *agg.Clipper
	// replays is the in-process stale-replay memory (fednet agents keep
	// their own).
	replays Replays
}

// NewServer validates the configuration, builds the model pool, the RL
// tables and the initial full-width global model. The clients slice is the
// legacy eager population; NewServerPopulation takes any Population.
func NewServer(cfg Config, clients []*Client) (*Server, error) {
	return NewServerPopulation(cfg, EagerPopulation(clients))
}

// NewServerPopulation is NewServer over an abstract Population. Its RL
// tables allocate a client's column at the client's first dispatch, so
// server memory scales with the set of clients ever selected rather than
// the population, eager or generated.
func NewServerPopulation(cfg Config, pop Population) (*Server, error) {
	if pop == nil || pop.Len() == 0 {
		return nil, fmt.Errorf("core: no clients")
	}
	if cfg.ClientsPerRound < 1 {
		return nil, fmt.Errorf("core: ClientsPerRound must be >= 1")
	}
	if cfg.ClientsPerRound > pop.Len() {
		return nil, fmt.Errorf("core: ClientsPerRound %d exceeds population %d", cfg.ClientsPerRound, pop.Len())
	}
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	pool, err := prune.BuildPool(cfg.Model, cfg.Pool)
	if err != nil {
		return nil, err
	}
	full, err := models.Build(cfg.Model, nil)
	if err != nil {
		return nil, err
	}
	aggPolicy, clip, err := agg.ParsePolicy(cfg.Agg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		pool:      pool,
		tables:    rl.NewTables(cfg.RL, pool.P, len(pool.Members), pop.Len()),
		pop:       pop,
		global:    nn.StateDict(full),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		inflight:  map[int64]*Flight{},
		exec:      NewExecutor(cfg.Parallelism),
		aggPolicy: aggPolicy,
		clip:      clip,
	}
	if cfg.Observer.Enabled() {
		s.exec.SetObserver(cfg.Observer)
		if op, ok := pop.(observablePopulation); ok {
			op.SetObserver(cfg.Observer)
		}
	}
	s.hashOn = cfg.Codec != nil || cfg.Trainer != nil
	if cfg.Codec != nil {
		s.artifacts = wire.NewArtifactStore(0)
	}
	s.commitSnapshot()
	return s, nil
}

// downKey identifies one (client, member) delivery for dispatch
// attribution within a snapshot.
type downKey struct{ client, member int }

// commitSnapshot re-anchors the dispatch layer to the current global
// state: it hashes the snapshot once (every dispatch of this snapshot
// reuses the hash in its artifact key) and resets the downlink
// attribution maps, since a new snapshot means new artifacts. Called at
// construction and after every ApplyUpdates/SyncGlobal version bump.
func (s *Server) commitSnapshot() {
	if !s.hashOn {
		return
	}
	h := nn.HashState(s.global)
	s.mu.Lock()
	s.snap = h
	s.downMembers = map[int]bool{}
	s.downClients = map[downKey]bool{}
	s.mu.Unlock()
}

// SnapshotHash returns the content hash of the current global snapshot
// (zero when the server is not hashing — no codec and no custom trainer).
func (s *Server) SnapshotHash() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Artifacts returns the in-process encode-once artifact store (nil
// without a codec, or when a custom trainer owns the wire).
func (s *Server) Artifacts() *wire.ArtifactStore { return s.artifacts }

// observablePopulation is an optional Population capability: populations
// with internal cache dynamics (the lazy LRU) report them to an observer.
type observablePopulation interface {
	SetObserver(o *obs.Observer)
}

// Executor returns the server's training executor.
func (s *Server) Executor() *Executor { return s.exec }

// Observer returns the attached observer (nil when observability is off;
// the nil observer is safe to call).
func (s *Server) Observer() *obs.Observer { return s.cfg.Observer }

// RewardOf reads the RL selection reward R(got, client) from the current
// tables — the quantity the next selection of this client would weigh.
// Pure read; flight spans carry it so a trace shows how each dispatch
// moved the bandit.
func (s *Server) RewardOf(got prune.Submodel, client int) float64 {
	return s.tables.Reward(got, s.pool, client)
}

// Pool exposes the model pool (read-only use intended).
func (s *Server) Pool() *prune.Pool { return s.pool }

// Tables exposes the RL tables (read-only use intended).
func (s *Server) Tables() *rl.Tables { return s.tables }

// Global returns the current global state dict (not a copy).
func (s *Server) Global() nn.State { return s.global }

// Stats returns the per-round communication ledger.
func (s *Server) Stats() []RoundStats { return s.stats }

// Clients returns the eager client slice, or nil for generated
// populations — scale-aware callers use NumClients/ClientAt instead.
func (s *Server) Clients() []*Client {
	if p, ok := s.pop.(EagerPopulation); ok {
		return p
	}
	return nil
}

// Population returns the server's client population.
func (s *Server) Population() Population { return s.pop }

// NumClients returns the population size.
func (s *Server) NumClients() int { return s.pop.Len() }

// ClientAt returns client c, materialising it if the population is lazy.
func (s *Server) ClientAt(c int) *Client { return s.pop.Client(c) }

// GlobalModel materialises the current global model at full width.
func (s *Server) GlobalModel() (*models.Model, error) {
	m, err := models.Build(s.cfg.Model, nil)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadState(m, s.global); err != nil {
		return nil, err
	}
	return m, nil
}

// SubmodelByName materialises the pool member with the given paper name
// (e.g. "M1") from the current global weights.
func (s *Server) SubmodelByName(name string) (*models.Model, error) {
	for _, mem := range s.pool.Members {
		if mem.Name() == name {
			m, err := models.Build(s.cfg.Model, mem.Widths)
			if err != nil {
				return nil, err
			}
			if err := prune.LoadPrefix(m, s.global); err != nil {
				return nil, err
			}
			return m, nil
		}
	}
	return nil, fmt.Errorf("core: no pool member %q", name)
}

// Slot is one planned dispatch: the selected client, the pool member to
// send, and the local-training seed.
type Slot struct {
	Client int
	Sent   prune.Submodel
	Seed   int64
}

// Flight is one in-flight dispatch: issued via OpenFlight, planned via
// Plan (in-process flights), executed via Execute (synchronously) or
// ExecuteAsync (on an Executor, joined via Wait), and finalised via
// Release/Record. Its plan and its executed result are both TrainResults;
// beside them it keeps only its own training error and whether the plan
// finalised it without training. The event-driven scheduler
// (internal/sched), which runs every round, keeps flights open across
// virtual time, executes them lazily while the virtual clock advances,
// and records them in slot order at a barrier (sync) or out of order
// (the asynchronous policies).
type Flight struct {
	ID   int64
	Slot Slot
	// Version is the global-model version the dispatch was cut from; the
	// difference to the version at merge time is the update's staleness.
	Version int
	// res is the executed result and err its training error; a flight
	// finalised without training copies its plan into res.
	res TrainResult
	err error
	// skipped marks a flight SkipFlight finalised from its plan: the
	// dropout was sealed before training could be observed (ledgered as
	// TrainSkipped unless the device fit no member).
	skipped bool

	// global is the state snapshot the dispatch trains from, captured at
	// open time. Aggregation replaces the server's state rather than
	// mutating it, so the reference stays valid (and bit-exact) for
	// lazily executed flights that outlive later commits.
	global nn.State
	// snap is global's content hash, captured with it — the artifact key
	// component for this dispatch (zero when the server is not hashing).
	snap uint64
	// downPath classifies how this dispatch's downlink artifact is served
	// (obs.Down* label; empty when the server is not hashing): the first
	// dispatch of a (snapshot, member) pays the encode, later dispatches
	// to new clients re-serve the cached bytes, and a repeat to a client
	// that already holds the artifact is a not-modified revalidation.
	downPath string
	// plan, when non-nil, is the pre-training forecast of the dispatch's
	// result (Server.Plan).
	plan *TrainResult
	// done is closed when an async execution (or a cancellation skip)
	// finalises res; nil for synchronously executed flights.
	done      chan struct{}
	cancelled atomic.Bool
	// resolved marks res as written on the opener's own goroutine
	// (Execute, SkipFlight); async executions signal through done instead.
	resolved bool
}

// Err reports the training error of an executed flight, if any.
func (f *Flight) Err() error { return f.err }

// Wait joins an asynchronous execution; it returns immediately for
// synchronously executed or skip-finalised flights.
func (f *Flight) Wait() {
	if f.done != nil {
		<-f.done
	}
}

// Cancel marks a pending asynchronous execution as unwanted: if no worker
// has picked it up yet, training is skipped and the result is finalised
// from the plan (ledger-identical for every field an unaggregated outcome
// reads). A training already underway completes and is simply discarded.
func (f *Flight) Cancel() { f.cancelled.Store(true) }

// finalised reports whether res is safe to read: the flight either ran
// (or was skip-finalised) on the opener's goroutine, or its done channel
// has been closed. Observing the closed channel orders the worker's res
// writes before the caller's read; the resolved flag is only consulted
// when no async execution was started, so it never races a worker.
func (f *Flight) finalised() bool {
	if f.done != nil {
		select {
		case <-f.done:
			return true
		default:
			return false
		}
	}
	return f.resolved
}

// Dispatch returns the ledger view of a flight's outcome. The caller (or
// Record) stamps Late/Dropped according to how the flight was finalised.
// For a planned flight whose execution is still pending (a cancelled
// deadline straggler), the view derives from the plan — identical, field
// for field, to what the executed result would report for an outcome that
// discards the trained weights, with TrainSkipped false because whether
// the worker had already started is timing noise.
func (f *Flight) Dispatch() Dispatch {
	res := &f.res
	if f.plan != nil && !f.finalised() {
		// f.res must not be touched here: a cancelled worker may still be
		// writing it.
		res = f.plan
	}
	return Dispatch{Client: f.Slot.Client, Sent: f.Slot.Sent, Got: res.Got,
		Failed: res.Failed, Codec: res.CodecTag, DownPath: f.downPath,
		SentBytes: res.SentBytes, GotBytes: res.GotBytes,
		TrainSkipped: f.skipped, Rejected: res.Rejected}
}

// PlanSlots runs Algorithm 1's selection phase for up to k dispatches over
// the clients for which eligible returns true (nil means everyone): random
// model selection, RL client selection with shrinking candidates, and one
// training seed per slot. On an eager population it permutes every
// client, drawing only from the server rng, so a run is fixed by the seed
// and the sequence of calls; a CandidateSampler population draws a
// bounded candidate sample instead
// (still purely from the server rng, so still deterministic) because
// permuting a million-client fleet per selection is the O(N) cost this
// refactor removes. Fewer than k slots come back when fewer clients are
// eligible.
func (s *Server) PlanSlots(k int, eligible func(int) bool) []Slot {
	var candidates []int
	if cs, ok := s.pop.(CandidateSampler); ok {
		candidates = cs.SampleCandidates(s.rng, k)
	} else {
		candidates = s.rng.Perm(s.pop.Len())
	}
	if eligible != nil {
		kept := candidates[:0]
		for _, c := range candidates {
			if eligible(c) {
				kept = append(kept, c)
			}
		}
		candidates = kept
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	slots := make([]Slot, 0, k)
	for i := 0; i < k; i++ {
		var sent prune.Submodel
		if s.cfg.Greedy {
			sent = s.pool.Largest()
		} else {
			sent = s.pool.Members[s.rng.Intn(len(s.pool.Members))] // RandomSel
		}
		// The tolerant variant: an availability-trace scheduler can
		// legitimately run the candidate set dry.
		c, ok := s.tables.TrySelectClient(s.rng, s.cfg.Mode, sent, s.pool, candidates)
		if !ok {
			break
		}
		// Remove c from candidates: a client trains at most one model at a
		// time.
		for j, cand := range candidates {
			if cand == c {
				candidates = append(candidates[:j], candidates[j+1:]...)
				break
			}
		}
		slots = append(slots, Slot{Sent: sent, Client: c})
	}
	for i := range slots {
		slots[i].Seed = s.rng.Int63()
	}
	return slots
}

// RoundTrainer returns the Trainer that will execute the given slots: the
// configured one, or nil for in-process execution. In-process dispatches
// are served from the server's content-addressed artifact store: each
// distinct (snapshot, member, codec) is encoded exactly once — on first
// use for members dispatched later, and here for the given slots at the
// current snapshot, whose artifacts are encoded side by side, at most the
// executor's width at once. Of several failures it returns the first
// slot's.
func (s *Server) RoundTrainer(slots []Slot) (Trainer, error) {
	if s.cfg.Trainer != nil || s.cfg.Codec == nil {
		return s.cfg.Trainer, nil
	}
	// Each member's first slot goes ahead of its repeats, so the workers
	// encode distinct members rather than wait on one key in flight; every
	// slot still makes one store Get, so the hit count is the serial one.
	order, repeats := make([]int, 0, len(slots)), []int(nil)
	seen := make(map[int]bool, len(slots))
	for i, sl := range slots {
		if seen[sl.Sent.Index] {
			repeats = append(repeats, i)
			continue
		}
		seen[sl.Sent.Index] = true
		order = append(order, i)
	}
	order = append(order, repeats...)
	errs := make([]error, len(slots))
	tensor.ForEach(len(order), s.exec.Width(), func(_, n int) {
		_, errs[order[n]] = s.artifact(s.snap, s.global, slots[order[n]].Sent)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// artifact returns the dispatch artifact for a pool member of the given
// snapshot from the server's content-addressed store, extracting and
// encoding exactly once per (snapshot, member, codec) across all flights
// and dispatch workers. The store owns the state each miss extracts and
// rounds it in place into the artifact's State. Only valid with a codec
// configured.
func (s *Server) artifact(snap uint64, global nn.State, sub prune.Submodel) (*wire.Artifact, error) {
	c := s.cfg.Codec
	key := wire.ArtifactKey{Snapshot: snap, Member: sub.Index, Codec: c.Tag()}
	art, err := s.artifacts.Get(key, c, func() (nn.State, error) {
		return s.pool.ExtractState(global, sub)
	})
	if err != nil {
		return nil, fmt.Errorf("dispatch %s: %w", sub.Name(), err)
	}
	return art, nil
}

// OpenFlight registers a dispatch in the in-flight set and anchors its
// staleness to the current global version. Flight IDs are assigned in call
// order, so open flights deterministically (single goroutine) and Execute
// them concurrently. On a pinning population the client is pinned for the
// flight's lifetime: its device is materialised here, on the opener's
// goroutine, so worker-side reads never influence (or race) the
// population's eviction order. Its shard is cut later, at the flight's
// first training, on the executor worker (Client.Shard).
func (s *Server) OpenFlight(sl Slot) *Flight {
	if p, ok := s.pop.(Pinner); ok {
		p.Pin(sl.Client)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	f := &Flight{ID: s.nextID, Slot: sl, Version: s.version, global: s.global, snap: s.snap}
	if s.hashOn {
		// Downlink attribution, decided where flight order is already
		// deterministic (this method runs on the opener's goroutine under
		// mu): the classification is a pure function of dispatch order, so
		// it is identical across serial/parallel execution and across the
		// in-process and HTTP transports.
		dk := downKey{client: sl.Client, member: sl.Sent.Index}
		switch {
		case s.downClients[dk]:
			f.downPath = obs.DownNotModified
		case s.downMembers[sl.Sent.Index]:
			f.downPath = obs.DownReserved
		default:
			f.downPath = obs.DownEncodedOnce
			s.downMembers[sl.Sent.Index] = true
		}
		s.downClients[dk] = true
	}
	s.inflight[f.ID] = f
	return f
}

// Plan resolves an in-process flight's on-device pruning decision ahead
// of training: one capacity draw per dispatch, in dispatch order, on the
// opener's goroutine. The plan is the flight's result as far as the cost
// model and the ledger can know it before (or without) running local
// training: Got (the sent member when Failed), Failed, and, with a codec,
// SentBytes and CodecTag. Execute trains the member the plan resolved, so
// every in-process flight must be planned before it executes. Returns
// (nil, nil) for a custom trainer (RoundTrainer's non-nil result): the
// pruning decision happens on the device, so planning is an in-process
// capability.
func (s *Server) Plan(trainer Trainer, f *Flight) (*TrainResult, error) {
	if trainer != nil {
		return nil, nil
	}
	client := s.pop.Client(f.Slot.Client)
	got, fit := s.pool.LargestFit(f.Slot.Sent, client.Device.Capacity())
	pl := &TrainResult{Got: got, Failed: !fit}
	if !fit {
		pl.Got = f.Slot.Sent
	}
	if s.cfg.Codec != nil {
		pl.CodecTag = s.cfg.Codec.Tag()
		art, err := s.artifact(f.snap, f.global, f.Slot.Sent)
		if err != nil {
			return nil, err
		}
		pl.SentBytes = int64(len(art.Bytes))
	}
	f.plan = pl
	return pl, nil
}

// SentBytesBound returns the downlink size an unplannable flight's
// trainer promises at launch (see DownlinkSizer), or 0 when the trainer
// makes no promise.
func (s *Server) SentBytesBound(trainer Trainer, f *Flight) (int64, error) {
	ds, ok := trainer.(DownlinkSizer)
	if !ok {
		return 0, nil
	}
	return ds.DownlinkBytes(f.request(nil), func() (nn.State, error) {
		return s.pool.ExtractState(f.global, f.Slot.Sent)
	})
}

// SkipFlight finalises a planned flight without training — lazy
// execution's payoff: a flight whose dropout is already sealed before the
// upload phase would discard its result unread, so no compute is spent
// producing it. Capacity failures are finalised the same way (they never
// trained) but are not counted as skips.
func (s *Server) SkipFlight(f *Flight) {
	f.res, f.skipped, f.resolved = *f.plan, !f.plan.Failed, true
}

// Execute runs the flight's local training (Steps 4-5 of Algorithm 1)
// with RoundTrainer's result: in-process (nil) on the member the flight's
// plan resolved, otherwise on the trainer. Distinct flights may execute
// concurrently.
func (s *Server) Execute(trainer Trainer, f *Flight) {
	if trainer == nil {
		f.res, f.err = s.trainPlanned(f)
	} else {
		f.res, f.err = s.trainRemote(trainer, f)
	}
	f.resolved = true
}

// ExecuteAsync enqueues the flight's training on the executor; Wait joins
// it. A flight cancelled before a worker picks it up skips training and
// finalises from its plan, unledgered as a skip: whether the worker had
// already started is timing noise.
func (s *Server) ExecuteAsync(x *Executor, trainer Trainer, f *Flight) {
	f.done = make(chan struct{})
	x.run(func() {
		defer close(f.done)
		if f.cancelled.Load() && f.plan != nil {
			f.res = *f.plan
			x.skipped.Add(1)
			return
		}
		x.executed.Add(1)
		s.Execute(trainer, f)
	})
}

// Release removes a flight from the in-flight set (its upload arrived, was
// dropped, or the run is abandoning it). The client becomes selectable
// again — and, on a pinning population, evictable again.
func (s *Server) Release(f *Flight) {
	s.mu.Lock()
	_, open := s.inflight[f.ID]
	delete(s.inflight, f.ID)
	s.mu.Unlock()
	if !open {
		return
	}
	if p, ok := s.pop.(Pinner); ok {
		p.Unpin(f.Slot.Client)
	}
}

// InFlight returns the number of open flights.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// Version returns the number of aggregations applied to the global model.
func (s *Server) Version() int { return s.version }

// Staleness returns how many aggregations have been applied since the
// flight was dispatched.
func (s *Server) Staleness(f *Flight) int { return s.version - f.Version }

// Outcome classifies how a flight was finalised.
type Outcome int

// Flight outcomes.
const (
	// Merged: the upload arrived in time and joins the next aggregation.
	Merged Outcome = iota
	// Late: the upload arrived after its round closed; wire bytes were
	// spent but the result is discarded (communication waste).
	Late
	// Dropped: the client went offline before the upload completed;
	// nothing came back.
	Dropped
	// LateReused: the upload arrived after its round closed but is banked
	// and merged into a later aggregation under a staleness discount
	// (FedAsync-style reuse) instead of being discarded.
	LateReused
	// Rejected: the upload arrived but its payload was refused (corrupt
	// codec bytes, non-finite values, invalid weight). Derived — callers
	// never pass it to Record; Record downgrades a Merged/LateReused
	// intent itself when the payload fails validation.
	Rejected
	// Clipped: the upload merged, but its delta was norm-clipped first
	// (Config.Agg "clip"). Derived the same way as Rejected.
	Clipped
)

// Record finalises an executed flight's outcome: it applies the RL table
// update and returns the ledger entry plus the aggregation update. The
// update is non-nil only for Merged and LateReused flights that trained
// successfully; the caller applies any staleness discount to its weight
// before aggregating.
func (s *Server) Record(f *Flight, oc Outcome) (Dispatch, *agg.Update) {
	// Everything below reads the ledger view, not res directly: a
	// cancelled flight whose worker is still running must be recordable
	// without racing it (Dispatch falls back to the plan view then, which
	// carries identical values for every field these outcomes read).
	d := f.Dispatch()
	if oc == Dropped {
		// The server never saw the upload: nothing is known beyond the
		// dispatch itself. Like a capacity failure, record the smallest
		// member so the selector learns to avoid the flaky client.
		d.Dropped, d.Got, d.GotBytes = true, d.Sent, 0
		s.tables.RecordDispatch(f.Slot.Sent, s.pool.Smallest(), f.Slot.Client)
		return d, nil
	}
	if d.Failed {
		// Nothing came back; the dispatch was pure waste. Record the
		// smallest member as the observed return for the tables so the
		// selector learns to avoid this client for large models.
		s.tables.RecordDispatch(f.Slot.Sent, s.pool.Smallest(), f.Slot.Client)
		return d, nil
	}
	// Rejection: the upload arrived but its payload must not aggregate —
	// the trainer flagged a decode failure, or (for outcomes that would
	// merge) record-time validation finds non-finite values or a
	// non-positive sample weight. Like a failure, the tables record the
	// smallest member so the selector learns to avoid the client.
	rejected := d.Rejected
	if !rejected && (oc == Merged || oc == LateReused) {
		rejected = f.res.Samples <= 0 || !StateFinite(f.res.State)
	}
	if rejected {
		d.Rejected = true
		if oc == Late || oc == LateReused {
			d.Late = true
		}
		s.tables.RecordDispatch(f.Slot.Sent, s.pool.Smallest(), f.Slot.Client)
		return d, nil
	}
	// The upload arrived (possibly late): the returned member is a
	// truthful capacity observation either way.
	s.tables.RecordDispatch(f.Slot.Sent, d.Got, f.Slot.Client)
	if oc == Late {
		d.Late = true
		return d, nil
	}
	if oc == LateReused {
		d.Late, d.LateReused = true, true
	}
	// Merged (and late-reused) outcomes consume the trained state: the
	// caller must have joined the execution (Wait) before recording, and
	// applies any staleness discount to the update's weight.
	state := f.res.State
	if s.clip != nil && oc == Merged {
		// Record-time norm clipping against the dispatched reference at
		// the update's own width. Fresh merges only: late-reused updates
		// are already staleness-discounted, and keeping Clipped ⊆ Merged
		// keeps the ledger census one-class-per-dispatch. An extraction
		// failure cannot happen for a pool member; staying total keeps the
		// hot path panic-free.
		if ref, err := s.pool.ExtractState(f.global, d.Got); err == nil {
			if clipped, did := s.clip.Clip(ref, state); did {
				state, d.Clipped = clipped, true
			}
		}
	}
	return d, &agg.Update{State: state, Weight: float64(f.res.Samples)}
}

// FlightSpan builds the observability span for a recorded flight: the
// ledger facts, d's Label as the outcome, and the RL reward read back from
// the updated tables; oc, the outcome Record was given, decides whether
// the span carries the update's staleness.
// The caller, which owns the virtual clock (internal/sched), fills the
// timing fields. Call only with an
// enabled observer — member names and the reward read are work the
// disabled path must not do.
func (s *Server) FlightSpan(f *Flight, d Dispatch, oc Outcome) obs.Span {
	sp := obs.Span{
		Kind:         obs.KindFlight,
		Client:       d.Client,
		Flight:       f.ID,
		Ver:          f.Version,
		Sent:         d.Sent.Name(),
		Codec:        d.Codec,
		DownBytes:    d.SentBytes,
		DownPath:     d.DownPath,
		UpBytes:      d.GotBytes,
		TrainSkipped: d.TrainSkipped,
		Outcome:      d.Label(),
	}
	if !d.Failed && !d.Dropped {
		sp.Got = d.Got.Name()
		sp.Reward = s.RewardOf(d.Got, d.Client)
	}
	if oc == Merged || oc == LateReused {
		sp.Staleness = s.Staleness(f)
	}
	return sp
}

// ApplyUpdates aggregates merged updates into the global model and bumps
// the version. An empty update set is a no-op (the version does not move).
func (s *Server) ApplyUpdates(updates []agg.Update) error {
	if len(updates) == 0 {
		return nil
	}
	next, err := s.aggPolicy.Aggregate(s.global, updates)
	if err != nil {
		return err
	}
	s.global = next
	s.version++
	s.commitSnapshot()
	return nil
}

// SyncGlobal replaces the global model with an externally aggregated
// state and bumps the version, exactly as ApplyUpdates would. A two-tier
// topology down-syncs each edge server from the global tier's merges this
// way; in-flight dispatches keep training on their captured snapshots and
// simply read as one aggregation staler.
func (s *Server) SyncGlobal(st nn.State) {
	s.global = st
	s.version++
	s.commitSnapshot()
}

// NextRound advances and returns the round counter (ledger numbering).
func (s *Server) NextRound() int {
	s.round++
	return s.round
}

// PushStats appends a completed ledger entry: the scheduler pushes one
// per aggregation.
func (s *Server) PushStats(st RoundStats) {
	s.stats = append(s.stats, st)
}

// request builds the flight's TrainRequest around its dispatched state.
func (f *Flight) request(st nn.State) TrainRequest {
	return TrainRequest{Flight: f.ID, Client: f.Slot.Client, Sent: f.Slot.Sent,
		State: st, Snapshot: f.snap, Seed: f.Slot.Seed}
}

// trainRemote hands one dispatch to a custom Trainer. The dispatch state
// comes from the flight's captured snapshot, so lazily executed flights
// train on the weights they were cut from even if later aggregations have
// moved the server's state on. The trainer's result passes through, with
// a failed one ledgered against the sent member.
func (s *Server) trainRemote(trainer Trainer, f *Flight) (TrainResult, error) {
	st, err := s.pool.ExtractState(f.global, f.Slot.Sent)
	if err != nil {
		return TrainResult{}, err
	}
	res, err := trainer.Train(f.request(st))
	if err != nil {
		return TrainResult{}, err
	}
	if res.Failed {
		res.Got = f.Slot.Sent
	}
	return res, nil
}

// trainPlanned executes an in-process flight: the capacity draw already
// happened at Plan time, so the device step goes straight to the resolved
// member. With a codec configured, the dispatch and upload both
// round-trip through the wire encoding — the dispatch state is the
// artifact's State, what its bytes decode to, shared by every flight of
// the member — so the run trains on, and aggregates, exactly what a
// networked device would see, and the ledger carries the real encoded
// sizes. The result is the plan completed by the training.
func (s *Server) trainPlanned(f *Flight) (TrainResult, error) {
	pl := f.plan
	if pl == nil {
		return TrainResult{}, fmt.Errorf("core: flight %d executed without a plan", f.ID)
	}
	if pl.Failed {
		return *pl, nil
	}
	shard, err := s.pop.Client(f.Slot.Client).Shard()
	if err != nil {
		return TrainResult{}, err
	}
	var sentState nn.State
	if s.cfg.Codec != nil {
		art, err := s.artifact(f.snap, f.global, f.Slot.Sent)
		if err != nil {
			return TrainResult{}, err
		}
		sentState = art.State
	} else if sentState, err = s.pool.ExtractState(f.global, f.Slot.Sent); err != nil {
		return TrainResult{}, err
	}
	step := DeviceStep{Model: s.cfg.Model, Train: s.cfg.Train, Adversary: s.cfg.Adversary,
		Codec: s.cfg.Codec, Replays: &s.replays}
	trained, up, err := step.Run(f.request(sentState), pl.Got, shard)
	if err != nil {
		return TrainResult{}, err
	}
	res := *pl
	res.Samples, res.GotBytes = shard.Len(), int64(len(up))
	if s.cfg.Codec != nil {
		// The uplink reference is the decoded dispatched state — the same
		// tensor a device agent diffs against. A garbage payload still
		// crossed the uplink: the bytes are real, the update is not, so a
		// decode failure is a ledgered rejection, not a run error.
		if trained, err = s.cfg.Codec.Decode(up, sentState); err != nil {
			res.Rejected = true
			return res, nil
		}
	}
	res.State = trained
	return res, nil
}

// TotalWireBytes sums the encoded payload sizes across the recorded
// rounds. Both totals are zero when no wire codec was in play.
func TotalWireBytes(stats []RoundStats) (sent, returned int64) {
	for _, st := range stats {
		sent += st.SentBytes
		returned += st.ReturnedBytes
	}
	return sent, returned
}

// CommWasteRate computes the paper's communication-waste metric over all
// recorded rounds: 1 − Σ size(returned) / Σ size(sent).
func CommWasteRate(stats []RoundStats) float64 {
	var sent, back int64
	for _, st := range stats {
		sent += st.SentParams
		back += st.ReturnedParams
	}
	if sent == 0 {
		return 0
	}
	return 1 - float64(back)/float64(sent)
}
