package sched

import (
	"fmt"
	"math"
	"math/rand"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/obs"
)

// flight wraps one open core.Flight with its simulation fate.
type flight struct {
	f   *core.Flight
	d   core.Dispatch // priced ledger view of the executed dispatch
	eta float64       // virtual completion (or dropout) time
	// pending marks a flight queued under bound, a lower bound on its
	// event time: it is joined and priced exactly when it reaches the
	// queue head (resolve). seq is its launch seq, the queue tie-break it
	// keeps when re-queued, and line its dispatch line in the event log,
	// reserved at launch and filled once eta is known.
	pending bool
	bound   float64
	seq     int64
	line    int
	// t0 / downT / trainT are the flight's virtual trace segments for
	// observability: dispatch cut, downlink completion, local-training
	// completion. downT/trainT stay zero when the phase never completed
	// (dropout mid-phase). eta closes the span.
	t0, downT, trainT float64
	// drops is the flight's fate, known once it is priced: the client's
	// availability window ends before the upload would complete. Its
	// queue event is a drop instead of an arrival.
	drops bool
	// collected marks a flight whose completion event fired before its
	// round closed (deadline policy: it made the cut).
	collected bool
	// recorded marks flights already finalised (deadline closes a round
	// before its stragglers' events fire); their events only release.
	recorded bool
}

// kind names the flight's queue event.
func (fl *flight) kind() string {
	if fl.drops {
		return "drop"
	}
	return "arrive"
}

// Engine is the discrete-event federated-training driver.
type Engine struct {
	cfg   Config
	srv   *core.Server
	cost  CostModel
	trace Trace
	// exec runs flight trainings off the event loop: dispatches enqueue
	// lazily and the arrival event joins the result, so the virtual clock
	// advances while workers train (see launchFlights).
	exec *core.Executor
	// yield, when set, runs before every join (see join): a Hierarchy
	// suspends the edge's step there so other edges plan and launch their
	// trainings meanwhile. Flat engines leave it nil.
	yield func()

	clock  float64
	seq    int64
	events queue[*flight]
	busy   map[int]bool // client id → has an open flight

	// sampled marks a population too large to scan per decision (it
	// implements core.CandidateSampler): eligibility checks and window
	// scans probe a bounded random subset through the engine-owned probe
	// rng instead of iterating every client. The probe stream is seeded by
	// a fixed constant and consumed only on the event loop, so runs stay
	// deterministic.
	sampled bool
	probe   *rand.Rand

	log     []string
	commits []Commit
	// obs is the server's observer. Nil when observability is off; always
	// safe to call.
	obs *obs.Observer
	// spanEdge tags every span this engine emits with an edge index, so a
	// hierarchy's shared trace stays groupable per tier (0 — the flat-run
	// default — marshals away, matching the global tier's spans).
	spanEdge int
	// discountSum accumulates StalenessDiscount over every update this
	// engine appended to an aggregation (see settle).
	discountSum float64

	// semiasync stream state, persisted across Steps.
	buffer []agg.Update
	accum  core.RoundStats
	// bank holds deadline-reuse updates from late uploads that arrived
	// after their round closed (staleness discount already applied); the
	// next commit merges and clears it. Their ledger entries accumulate in
	// accum alongside it.
	bank []agg.Update
}

// New builds an engine around a server. cost is required; a nil trace
// defaults to AlwaysOn.
func New(srv *core.Server, cost CostModel, trace Trace, cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if srv == nil || cost == nil {
		return nil, fmt.Errorf("sched: server and cost model are required")
	}
	if trace == nil {
		trace = AlwaysOn{}
	}
	if cfg.K > srv.NumClients() {
		return nil, fmt.Errorf("sched: K=%d exceeds population %d", cfg.K, srv.NumClients())
	}
	_, sampled := srv.Population().(core.CandidateSampler)
	return &Engine{cfg: cfg, srv: srv, cost: cost, trace: trace, exec: srv.Executor(),
		busy: map[int]bool{}, sampled: sampled, obs: srv.Observer(),
		probe: rand.New(rand.NewSource(0x5851f42d4c957f2d))}, nil
}

// emitFlight closes a recorded flight's span: the server supplies the
// ledger facts and RL reward, the engine the virtual trace segments.
// Record must already have run (the reward reads the updated tables).
func (e *Engine) emitFlight(fl *flight, d core.Dispatch, oc core.Outcome) {
	if !e.obs.Enabled() {
		return
	}
	sp := e.srv.FlightSpan(fl.f, d, oc)
	sp.Time = e.clock
	sp.Start = fl.t0
	sp.DownEnd = fl.downT
	sp.TrainEnd = fl.trainT
	sp.End = fl.eta
	sp.Edge = e.spanEdge
	e.obs.Span(sp)
}

// SetSpanEdge tags every span this engine emits with an edge index.
// NewHierarchy calls it so edge traces multiplexed into one sink stay
// separable; flat runs keep the zero default.
func (e *Engine) SetSpanEdge(id int) { e.spanEdge = id }

// settle finalises a flight with outcome oc. It is the one path every
// policy records through: the dispatch is ledgered into stats, its update
// (if any) joins to under the staleness discount 1/(1+s)^α anchored to the
// version the dispatch was cut from, and its span closes. A fresh merge
// has s = 0, so its factor is exactly 1 and its weight keeps its bits.
// DiscountSum accrues the factor of every update appended: the ground
// truth the trace auditor reconciles Σ StalenessDiscount(span.stale, α)
// against.
func (e *Engine) settle(fl *flight, oc core.Outcome, stats *core.RoundStats, to *[]agg.Update) (core.Dispatch, int) {
	fl.recorded = true
	stale := e.srv.Staleness(fl.f)
	d, u := e.srv.Record(fl.f, oc)
	stats.Add(d)
	if u != nil {
		f := StalenessDiscount(stale, e.cfg.StalenessExp)
		u.Weight *= f
		e.discountSum += f
		*to = append(*to, *u)
	}
	e.emitFlight(fl, d, oc)
	return d, stale
}

// DiscountSum returns the accumulated staleness discount over every
// update this engine merged (see settle).
func (e *Engine) DiscountSum() float64 { return e.discountSum }

// Policy returns the aggregation policy the engine runs.
func (e *Engine) Policy() Policy { return e.cfg.Policy }

// StalenessExp returns the normalized staleness exponent α the engine
// discounts with.
func (e *Engine) StalenessExp() float64 { return e.cfg.StalenessExp }

// Clock returns the current virtual time in seconds.
func (e *Engine) Clock() float64 { return e.clock }

// Log returns the event log: one line per dispatch, arrival, drop and
// commit, in virtual-time order. Two runs with the same seed, trace and
// cost model produce identical logs. Dispatch lines of flights still
// pending are filled first: Log blocks until every queued flight's
// training has finished. It never yields to a Hierarchy, since a yield
// from outside an edge step would deadlock.
func (e *Engine) Log() []string {
	for _, en := range e.events {
		e.fill(en.v)
	}
	return e.log
}

// Commits returns the aggregations performed so far.
func (e *Engine) Commits() []Commit { return e.commits }

func (e *Engine) logf(format string, args ...any) {
	e.log = append(e.log, fmt.Sprintf(format, args...))
}

// head returns the time of the earliest queued event (+Inf on an empty
// queue). A pending flight at the head is resolved first and re-queued at
// its exact time under its launch seq. Every other queued key is at most
// its flight's event time, so the first resolved head is the event an
// engine that priced every flight at launch would process next.
func (e *Engine) head() (float64, error) {
	for len(e.events) > 0 {
		top := e.events[0]
		fl := top.v
		if fl.pending {
			if err := e.resolve(fl, true); err != nil {
				return 0, err
			}
		}
		if top.t == fl.eta {
			return top.t, nil
		}
		e.events.pop()
		e.events.push(fl.eta, top.seq, fl)
	}
	return math.Inf(1), nil
}

// pop advances the clock to the earliest queued event and returns its
// flight.
func (e *Engine) pop() (*flight, error) {
	if _, err := e.head(); err != nil {
		return nil, err
	}
	t, fl := e.events.pop()
	e.clock = t
	return fl, nil
}

// eligible reports whether client c can receive a dispatch now.
func (e *Engine) eligible(c int) bool {
	if e.busy[c] {
		return false
	}
	up, _, _ := e.trace.Window(c, e.clock)
	return up
}

// probeCount bounds how many random clients a sampled-population engine
// inspects per eligibility or window scan.
const probeCount = 64

// scan calls visit on every client, or on a sampled population on
// probeCount random ones drawn from the probe stream, until visit
// returns false.
func (e *Engine) scan(visit func(c int) bool) {
	if e.sampled {
		n := e.srv.NumClients()
		for i := 0; i < probeCount && visit(e.probe.Intn(n)); i++ {
		}
		return
	}
	for c := 0; c < e.srv.NumClients() && visit(c); c++ {
	}
}

// anyEligible reports whether some client can receive a dispatch now. On
// a sampled population it probes instead of scanning the fleet — with any
// realistic on-share, missing every up client 64 times in a row is
// negligible, and a miss only delays the dispatch to the next wake-up,
// never corrupts state.
func (e *Engine) anyEligible() bool {
	found := false
	e.scan(func(c int) bool {
		found = e.eligible(c)
		return !found
	})
	return found
}

// nextOffline returns the first time in [t, horizon) at which client c is
// offline, or +Inf if the client stays up for the whole span. Consecutive
// up segments (a speed change without churn) do not count — only a real
// off window can kill a flight.
func (e *Engine) nextOffline(c int, t, horizon float64) float64 {
	for t < horizon {
		up, _, until := e.trace.Window(c, t)
		if !up {
			return t
		}
		if math.IsInf(until, 1) {
			return math.Inf(1)
		}
		t = until
	}
	return math.Inf(1)
}

// transferEnd advances t by dur seconds of network transfer, or reports
// the dropout time if the client goes offline first.
func (e *Engine) transferEnd(c int, t, dur float64) (end float64, dropped bool) {
	if off := e.nextOffline(c, t, t+dur); off < t+dur {
		return off, true
	}
	return t + dur, false
}

// trainEnd integrates `work` nominal training seconds over the client's
// trace segments starting at t: a segment with slowdown f delivers
// (segment length)/f nominal seconds of progress, and an off segment
// kills the flight. Returns the completion (or dropout) time.
func (e *Engine) trainEnd(c int, t, work float64) (end float64, dropped bool) {
	for work > 0 {
		up, slow, until := e.trace.Window(c, t)
		if !up {
			return t, true
		}
		need := work * slow
		if math.IsInf(until, 1) || t+need <= until {
			return t + need, false
		}
		work -= (until - t) / slow
		t = until
	}
	return t, false
}

// price walks a flight's download, training and, when upload is set,
// upload phases over its client's trace from start, costing each phase
// from the flight's ledger view fl.d. It sets the flight's trace segments
// and fate; a dropout ends the walk.
func (e *Engine) price(fl *flight, start float64, upload bool) {
	c := fl.d.Client
	cl := e.srv.ClientAt(c)
	down, train, up := e.cost.DispatchTimes(cl.Device.Class, fl.d, cl.Data.Len(), e.cfg.Epochs)
	fl.t0, fl.downT, fl.trainT = start, 0, 0
	t, dropped := e.transferEnd(c, start, down)
	if !dropped {
		fl.downT = t
		if t, dropped = e.trainEnd(c, t, train); !dropped {
			fl.trainT = t
			if upload {
				t, dropped = e.transferEnd(c, t, up)
			}
		}
	}
	fl.eta, fl.drops = t, dropped
}

// launchBound is a lower bound on the event time of a flight whose
// trainer owns the pruning decision, launched now with sent promised
// downlink bytes. It is price's walk over minimum durations: the download
// at the promised size, then the earlier of two outcomes, training the
// cheapest member derivable from the sent one (its upload takes ≥ 0) and
// a failed return, which uploads the sent size. transferEnd and trainEnd
// are monotone in both their start and their duration, so under any trace
// no outcome of the flight ends earlier; a cost model must likewise charge
// no less for more bytes or MACs. With no promise (sent = 0) the download
// and the failed return take ≥ 0, and the bound is the launch time.
func (e *Engine) launchBound(fl *flight, sent int64) float64 {
	if sent == 0 {
		return e.clock
	}
	cheapest := fl.d.Sent
	for _, m := range e.srv.Pool().Members {
		if m.MACs < cheapest.MACs && m.DerivableFrom(fl.d.Sent) {
			cheapest = m
		}
	}
	trained := &flight{d: core.Dispatch{Client: fl.d.Client, Sent: fl.d.Sent, Got: cheapest, SentBytes: sent}}
	e.price(trained, e.clock, false)
	failed := &flight{d: core.Dispatch{Client: fl.d.Client, Sent: fl.d.Sent, Got: fl.d.Sent, Failed: true, SentBytes: sent}}
	e.price(failed, e.clock, true)
	return min(trained.eta, failed.eta)
}

// launchFlights prices and lazily executes a burst of opened flights, in
// slot order, at the current virtual time. Every flight is queued under a
// lower bound on its event time and keeps its launch seq; a flight whose
// bound is not its exact time is joined and re-priced when it reaches the
// queue head (head, resolve):
//
//   - A planned flight (in-process execution) is priced from its plan. If
//     the client drops before the upload, or the device fits no member,
//     its fate is sealed and training is skipped entirely.
//   - A surviving planned flight trains lazily on the executor; the event
//     that consumes the result joins it (Engine.join). Its upload is
//     priced from the plan too, so its time is exact, unless a codec sizes
//     the upload from the trained values: then its bound is the end of its
//     training.
//   - A flight of an unplannable trainer (which owns the pruning decision)
//     trains lazily under launchBound.
//
// Dispatch lines are reserved in slot order and filled once a flight's
// time is known, so the event log is bit-identical to pricing every
// flight at launch. On error no flight of the burst stays open: its
// enqueued trainings are waited for and every flight is released.
func (e *Engine) launchFlights(trainer core.Trainer, open []*core.Flight) (_ []*flight, err error) {
	defer func() {
		if err != nil {
			for _, cf := range open {
				cf.Wait()
				e.srv.Release(cf)
				delete(e.busy, cf.Slot.Client)
			}
		}
	}()
	fls := make([]*flight, len(open))
	for i, cf := range open {
		pl, err := e.srv.Plan(trainer, cf)
		if err != nil {
			return nil, fmt.Errorf("sched: t=%.3f %w", e.clock, err)
		}
		fl := &flight{f: cf, d: cf.Dispatch()} // the plan view: training has not run
		fls[i] = fl
		if pl == nil {
			sent, err := e.srv.SentBytesBound(trainer, cf)
			if err != nil {
				return nil, fmt.Errorf("sched: t=%.3f %w", e.clock, err)
			}
			e.srv.ExecuteAsync(e.exec, trainer, cf)
			fl.t0, fl.eta, fl.pending = e.clock, e.launchBound(fl, sent), true
			continue
		}
		upload := pl.Failed || pl.Codec == ""
		e.price(fl, e.clock, upload)
		if fl.drops || pl.Failed {
			e.srv.SkipFlight(cf)
		} else {
			e.srv.ExecuteAsync(e.exec, trainer, cf)
			fl.pending = !upload
		}
		fl.d = cf.Dispatch()
	}
	for _, fl := range fls {
		e.busy[fl.d.Client] = true
		e.seq++
		fl.seq, fl.bound, fl.line = e.seq, fl.eta, len(e.log)
		e.events.push(fl.eta, fl.seq, fl)
		e.log = append(e.log, "")
		if !fl.pending {
			e.logDispatch(fl)
		}
	}
	return fls, nil
}

// logDispatch fills a flight's reserved dispatch line.
func (e *Engine) logDispatch(fl *flight) {
	e.log[fl.line] = fmt.Sprintf("%.3f dispatch c%d %s eta=%.3f%s",
		fl.t0, fl.d.Client, fl.d.Sent.Name(), fl.eta, map[bool]string{true: " will-drop"}[fl.drops])
}

// resolve joins a pending flight and prices it exactly from its launch
// time with its executed ledger view (bit for bit the walk a join at
// launch made, as long as the trace still holds the flight's segments:
// see Step), then fills its dispatch line. It does not re-queue the
// flight; head does that when its entry surfaces. An event time below the
// bound it was queued under would mean events past it may already have
// run, so it is an error naming the flight, never clamped.
func (e *Engine) resolve(fl *flight, yield bool) error {
	if err := e.join(fl, yield); err != nil {
		return err
	}
	fl.d = fl.f.Dispatch()
	e.price(fl, fl.t0, true)
	if fl.eta < fl.bound {
		return fmt.Errorf("sched: flight %d (client %d, %s) priced at t=%.6f, below its launch bound %.6f",
			fl.f.ID, fl.d.Client, fl.d.Sent.Name(), fl.eta, fl.bound)
	}
	fl.pending = false
	e.logDispatch(fl)
	return nil
}

// fill resolves a pending flight without yielding, for callers outside a
// step (Log, abandon); a flight that cannot be resolved logs its error in
// its dispatch line and stays pending, so the next step reports it.
func (e *Engine) fill(fl *flight) {
	if !fl.pending {
		return
	}
	if err := e.resolve(fl, false); err != nil {
		e.log[fl.line] = fmt.Sprintf("%.3f dispatch c%d %s error: %v", fl.t0, fl.d.Client, fl.d.Sent.Name(), err)
	}
}

// join waits for a flight's pending training (a no-op for skipped or
// already-joined flights) and surfaces its error. Events that consume the
// trained result call it before recording; it is the engine's only wait
// on a flight, and, when yield is set, it yields first when the engine
// runs under a Hierarchy.
func (e *Engine) join(fl *flight, yield bool) error {
	if yield && e.yield != nil {
		e.yield()
	}
	fl.f.Wait()
	if err := fl.f.Err(); err != nil {
		return fmt.Errorf("sched: t=%.3f client %d: %w", e.clock, fl.f.Slot.Client, err)
	}
	return nil
}

// abandon runs after a failed step: every queued flight's training is
// waited for and the flight released, so none stays open.
func (e *Engine) abandon() {
	for len(e.events) > 0 {
		_, fl := e.events.pop()
		fl.f.Wait()
		e.fill(fl)
		e.release(fl)
	}
}

// release hands the flight's client back to the selectable pool.
func (e *Engine) release(fl *flight) {
	e.srv.Release(fl.f)
	delete(e.busy, fl.d.Client)
}

// nextWindowOpen returns the earliest time a currently-offline, not-busy
// client comes back up, or +Inf if none is offline. A sampled population
// probes: the probed minimum upper-bounds the true one, which only delays
// a wake-up — every probed down client yields a finite bound, so progress
// is preserved whenever the fleet is mostly offline.
func (e *Engine) nextWindowOpen() float64 {
	open := math.Inf(1)
	e.scan(func(c int) bool {
		if e.busy[c] {
			return true
		}
		if up, _, until := e.trace.Window(c, e.clock); !up && until < open {
			open = until
		}
		return true
	})
	return open
}

// waitEligible advances virtual time until at least one client is
// dispatchable, processing any queue events passed over (stragglers from
// closed rounds release their clients — or bank their uploads — here). It
// fails if nothing can ever become eligible again.
func (e *Engine) waitEligible() error {
	for !e.anyEligible() {
		tEvent, err := e.head()
		if err != nil {
			return err
		}
		// A down client's window end is the other signal that can change
		// eligibility.
		tNext := min(tEvent, e.nextWindowOpen())
		if math.IsInf(tNext, 1) {
			return fmt.Errorf("sched: stalled at t=%.3f — no client can become available", e.clock)
		}
		if tEvent <= tNext {
			fl, err := e.pop()
			if err != nil {
				return err
			}
			if err := e.settleResidual(fl); err != nil {
				return err
			}
			continue
		}
		e.clock = tNext
	}
	return nil
}

// settleResidual handles the event of a flight from an already-closed
// round. A flight finalised at close only releases its client and logs
// its outcome. A deadline-reuse straggler, left open at close precisely so
// its upload could still be observed, is joined and ledgered LateReused
// (recorded exactly once: settle marks it), and its update joins the bank
// for the next aggregation.
func (e *Engine) settleResidual(fl *flight) error {
	if fl.recorded || fl.drops {
		e.release(fl)
		e.logf("%.3f late-%s c%d %s", e.clock, fl.kind(), fl.d.Client, fl.d.Got.Name())
		return nil
	}
	err := e.join(fl, true)
	e.release(fl)
	if err != nil {
		return err
	}
	d, stale := e.settle(fl, core.LateReused, &e.accum, &e.bank)
	switch {
	case d.Failed:
		// A capacity failure that also straggled: nothing to reuse, the
		// ledger entry is plain waste.
		e.logf("%.3f late-failed c%d %s", e.clock, d.Client, d.Got.Name())
	case d.Rejected:
		e.logf("%.3f late-rejected c%d %s", e.clock, d.Client, d.Got.Name())
	default:
		e.logf("%.3f late-reuse c%d %s stale=%d", e.clock, d.Client, d.Got.Name(), stale)
	}
	return nil
}

// launchBatch opens flights for the slots in order (deterministic IDs)
// and hands them to launchFlights.
func (e *Engine) launchBatch(slots []core.Slot) ([]*flight, error) {
	trainer, err := e.srv.RoundTrainer(slots)
	if err != nil {
		return nil, fmt.Errorf("sched: t=%.3f %w", e.clock, err)
	}
	open := make([]*core.Flight, len(slots))
	for i, sl := range slots {
		open[i] = e.srv.OpenFlight(sl)
	}
	return e.launchFlights(trainer, open)
}

// commitRecorded applies one aggregation from finalised dispatches and
// logs it.
func (e *Engine) commitRecorded(round int, stats core.RoundStats, updates []agg.Update) (Commit, error) {
	stats.Round = round
	if err := e.srv.ApplyUpdates(updates); err != nil {
		return Commit{}, fmt.Errorf("sched: t=%.3f round %d aggregate: %w", e.clock, round, err)
	}
	e.srv.PushStats(stats)
	c := Commit{Round: round, Time: e.clock, Merged: len(updates)}
	for _, d := range stats.Dispatches {
		switch {
		case d.Dropped:
			c.Dropped++
		case d.Failed:
			c.Failed++
		case d.Rejected:
			c.Rejected++
		case d.LateReused:
			c.LateReused++
		case d.Late:
			c.Late++
		default:
			if d.Clipped {
				c.Clipped++
			}
		}
	}
	e.commits = append(e.commits, c)
	// The rejected/clipped suffix appears only when nonzero: honest runs
	// keep the pinned log line byte-identical to previous releases.
	suffix := ""
	if c.Rejected > 0 || c.Clipped > 0 {
		suffix = fmt.Sprintf(" rejected=%d clipped=%d", c.Rejected, c.Clipped)
	}
	e.logf("%.3f commit round=%d merged=%d failed=%d late=%d reused=%d dropped=%d%s",
		e.clock, round, c.Merged, c.Failed, c.Late, c.LateReused, c.Dropped, suffix)
	if e.obs.Enabled() {
		e.obs.Span(obs.Span{Kind: obs.KindCommit, Time: e.clock, Client: -1,
			Round: round, Edge: e.spanEdge, Merged: c.Merged, Failed: c.Failed,
			Late: c.Late, Reused: c.LateReused, Dropped: c.Dropped,
			Rejected: c.Rejected, Clipped: c.Clipped})
	}
	return c, nil
}

// stepDeadline runs one round: dispatch K+extra, close as soon as K
// responses are in (or, with a positive limit, once limit virtual seconds
// have passed with at least one). At close, stragglers are finalised as
// Late/Dropped waste — or, with reuse (the deadline-reuse policy), left
// open so their uploads can be banked when they eventually arrive and
// merged into a later aggregation under the staleness discount, alongside
// any bank the previous rounds accumulated. Sync is this loop with
// extra = 0 and no limit: the round waits for every dispatched client and
// aggregates in slot order, Algorithm 1's synchronous round on the
// virtual clock.
func (e *Engine) stepDeadline(extra int, limit float64, reuse bool) (Commit, error) {
	if err := e.waitEligible(); err != nil {
		return Commit{}, err
	}
	round := e.srv.NextRound()
	fls, err := e.launchBatch(e.srv.PlanSlots(e.cfg.K+extra, e.eligible))
	if err != nil {
		return Commit{}, err
	}
	target := min(e.cfg.K, len(fls))
	deadline := math.Inf(1)
	if limit > 0 {
		deadline = e.clock + limit
	}
	thisRound := make(map[*flight]bool, len(fls))
	for _, fl := range fls {
		thisRound[fl] = true
	}
	// left counts this round's flights still in the queue: once they are
	// exhausted (everything else dropped) the round closes with what it
	// has — prior rounds' residual events must not extend the wait.
	left := len(fls)
	arrived := 0
	for arrived < target && left > 0 {
		t, err := e.head()
		if err != nil {
			return Commit{}, err
		}
		// Past the deadline with something in hand: stop waiting. (With an
		// empty hand the round stays open until the first response, which
		// may itself land past the deadline — the clock only ever moves
		// forward, so the close time is the later of the two.)
		if arrived >= 1 && t > deadline {
			if e.clock < deadline {
				e.clock = deadline
			}
			e.logf("%.3f deadline round=%d arrived=%d", e.clock, round, arrived)
			break
		}
		fl, err := e.pop()
		if err != nil {
			return Commit{}, err
		}
		if !thisRound[fl] {
			// A prior round's flight: its client releases either way; a
			// reuse straggler additionally banks its upload.
			if err := e.settleResidual(fl); err != nil {
				return Commit{}, err
			}
			continue
		}
		err = e.join(fl, true)
		e.release(fl)
		if err != nil {
			return Commit{}, err
		}
		e.logf("%.3f %s c%d %s", e.clock, fl.kind(), fl.d.Client, fl.d.Got.Name())
		left--
		fl.collected = true
		if !fl.drops {
			arrived++
		}
	}
	// The bank goes first: its entries arrived (in virtual time) before
	// this round's close, and merging banked updates ahead of fresh ones
	// keeps the aggregation order deterministic.
	stats := core.RoundStats{}
	var updates []agg.Update
	if reuse {
		stats, updates = e.accum, e.bank
		e.accum, e.bank = core.RoundStats{}, nil
	}
	for _, fl := range fls {
		// A straggler still pending is priced now: its fate (a drop, or a
		// late upload of its executed size) is settled at this close, or,
		// with reuse, when its event fires.
		if fl.pending {
			if err := e.resolve(fl, true); err != nil {
				return Commit{}, err
			}
		}
		oc := core.Merged
		switch {
		case fl.drops:
			oc = core.Dropped
		case fl.collected:
		case reuse:
			// The straggler's upload is still in flight and will be banked
			// at its arrival event; its ledger entry lands with the
			// aggregation that consumes it.
			continue
		default:
			// A straggler ledgered Late at close: its upload is discarded,
			// so a training still queued behind a worker is abandoned (the
			// ledger view falls back to the plan, which carries identical
			// fields for a discarded outcome).
			oc = core.Late
			fl.f.Cancel()
		}
		e.settle(fl, oc, &stats, &updates)
	}
	return e.commitRecorded(round, stats, updates)
}

// refill tops the in-flight set back up to K, one planned dispatch at a
// time, among currently eligible clients. The burst's flights are opened
// in plan order (deterministic IDs, rng stream identical to one-at-a-time
// dispatching) and then launched together, so their trainings overlap on
// the executor instead of serialising the refill.
func (e *Engine) refill() error {
	var open []*core.Flight
	for e.srv.InFlight() < e.cfg.K {
		slots := e.srv.PlanSlots(1, e.eligible)
		if len(slots) == 0 {
			break // nobody dispatchable right now
		}
		// Mark the client busy immediately so the next PlanSlots cannot
		// re-pick it (launchFlights marks it again, idempotently).
		e.busy[slots[0].Client] = true
		open = append(open, e.srv.OpenFlight(slots[0]))
	}
	if len(open) == 0 {
		return nil
	}
	trainer, err := e.srv.RoundTrainer(nil)
	if err != nil {
		return fmt.Errorf("sched: t=%.3f %w", e.clock, err)
	}
	_, err = e.launchFlights(trainer, open)
	return err
}

// stepSemiAsync advances the buffered-asynchronous stream until the next
// aggregation: keep K dispatches in flight, fold every arrival into the
// buffer with its staleness discount, and commit once B updates are in.
func (e *Engine) stepSemiAsync() (Commit, error) {
	for {
		if err := e.refill(); err != nil {
			return Commit{}, err
		}
		if len(e.events) == 0 {
			// Nothing in flight and nobody eligible: wait for a window.
			if err := e.waitEligible(); err != nil {
				return Commit{}, err
			}
			continue
		}
		// Below the in-flight target with clients merely offline: if a
		// window opens before the next queued event, jump there and cut
		// the dispatch immediately instead of letting the client idle
		// until an unrelated arrival happens to wake the loop.
		if e.srv.InFlight() < e.cfg.K {
			t, err := e.head()
			if err != nil {
				return Commit{}, err
			}
			if open := e.nextWindowOpen(); open < t {
				e.clock = open
				continue
			}
		}
		fl, err := e.pop()
		if err != nil {
			return Commit{}, err
		}
		e.release(fl)
		if fl.drops {
			e.settle(fl, core.Dropped, &e.accum, &e.buffer)
			e.logf("%.3f drop c%d %s", e.clock, fl.d.Client, fl.d.Sent.Name())
			continue
		}
		if err := e.join(fl, true); err != nil {
			return Commit{}, err
		}
		d, stale := e.settle(fl, core.Merged, &e.accum, &e.buffer)
		e.logf("%.3f arrive c%d %s stale=%d", e.clock, d.Client, d.Got.Name(), stale)
		if len(e.buffer) >= e.cfg.Buffer {
			c, err := e.commitRecorded(e.srv.NextRound(), e.accum, e.buffer)
			if err != nil {
				return Commit{}, err
			}
			e.buffer, e.accum = nil, core.RoundStats{}
			return c, nil
		}
	}
}

// Compactor is implemented by traces that can discard timeline state
// wholly behind a time bound (RandomTrace's generated segments). The
// engine's clock is monotonic and every trace query it issues is at or
// after the current clock or a pending flight's launch time (resolve
// re-prices from there), so Step retires everything behind the earlier of
// the two before advancing — without this, generated timelines grow
// O(time).
type Compactor interface {
	Retire(t float64)
}

// Step advances the schedule until the next aggregation and returns it.
// A failed step leaves no flight open (see abandon).
func (e *Engine) Step() (_ Commit, err error) {
	defer func() {
		if err != nil {
			e.abandon()
		}
	}()
	if c, ok := e.trace.(Compactor); ok {
		t := e.clock
		for _, en := range e.events {
			if en.v.pending {
				t = min(t, en.v.t0)
			}
		}
		c.Retire(t)
	}
	switch e.cfg.Policy {
	case Sync:
		return e.stepDeadline(0, 0, false)
	case Deadline, DeadlineReuse:
		return e.stepDeadline(e.cfg.Extra, e.cfg.Deadline, e.cfg.Policy == DeadlineReuse)
	case SemiAsync:
		return e.stepSemiAsync()
	}
	return Commit{}, fmt.Errorf("sched: unknown policy %q", e.cfg.Policy)
}

// Run performs n aggregations, invoking cb (if non-nil) after each; cb
// returning false stops early.
func (e *Engine) Run(n int, cb func(Commit) bool) error {
	for i := 0; i < n; i++ {
		c, err := e.Step()
		if err != nil {
			return err
		}
		if cb != nil && !cb(c) {
			return nil
		}
	}
	return nil
}
