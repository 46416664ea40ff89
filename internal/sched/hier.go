package sched

import (
	"fmt"
	"math"
	"sort"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
)

// Edge is one edge aggregator of a two-tier topology: its own core.Server
// over a client shard, driven by its own Engine (any policy, its own
// seeded event queue). The hierarchy steps edges in virtual-time order
// and treats their commits as uploads into the global tier.
type Edge struct {
	Srv *core.Server
	Eng *Engine

	id int
	// anchor is the global version the edge last down-synced from; the
	// global tier discounts the edge's uploads by how many global merges
	// happened since (the same staleness currency the flat semiasync
	// policy uses for clients).
	anchor int
	// pendingSync marks that a global merge happened since the edge last
	// ran; the next step down-syncs the edge's model first.
	pendingSync bool

	// The edge's running step (see Hierarchy.advance): ord is its begin
	// ordinal (0 while the edge is idle), wake resumes it from a join,
	// and commit/err hold what Engine.Step returned.
	ord    int64
	wake   chan struct{}
	commit Commit
	err    error
}

// HierConfig tunes the global tier.
type HierConfig struct {
	// GlobalBuffer is the number of edge updates per global merge
	// (semiasync-style buffering). Default max(1, edges/2).
	GlobalBuffer int
	// StalenessExp is the global tier's staleness-discount exponent α in
	// 1/(1+s)^α. Zero means the 0.5 default; negative disables.
	StalenessExp float64
	// Epochs is only used to price the edge→cloud uplink through the cost
	// model's interface. Default 1.
	Epochs int
	// Observer receives the global tier's spans — edge commits entering
	// transit, arrivals folding into the buffer, down-syncs, global merges
	// — mirroring the event-log lines one-to-one. Edge engines carry their
	// own observers (usually the same one).
	Observer *obs.Observer
}

// GlobalCommit is one global-tier merge.
type GlobalCommit struct {
	Round  int     // global version after the merge
	Time   float64 // virtual arrival time of the update that filled the buffer
	Merged int     // edge updates aggregated
}

// arrival is one edge commit in transit to the global tier, queued at
// its arrival time.
type arrival struct {
	edge   int
	state  nn.State
	weight float64
	anchor int
}

// Hierarchy is the two-tier federated topology: N edge aggregators, each
// running its own policy over its own client shard, feed a global
// semiasync tier. Edge commits become the global tier's "uploads" — the
// full edge model crossing the backhaul, priced by the same CostModel
// that prices client dispatches (Strong class, largest pool member) — and
// merge under sched.StalenessDiscount once GlobalBuffer of them are in.
//
// The merge is a conservative discrete-event composition: the hierarchy
// always advances the edge with the smallest key, and an in-transit edge
// update is only folded into the global buffer once every key has passed
// its arrival time — by then no edge can emit an earlier-arriving update,
// so global merges happen in true virtual-time order and each edge's next
// down-sync is causally valid (its clock is already past the merge).
//
// Edge steps run as coroutines: each Engine.Step runs on its own
// goroutine and yields back to the hierarchy at every join, so while one
// edge's training runs on the shared executor, every edge whose clock is
// earlier plans and launches its own. A suspended step's key is its
// clock (the join's event time), winning ties in begin order; an idle
// edge's key is its clock, then its index. Control code runs on one
// goroutine at a time, handed over through channels, so every decision
// is still a deterministic function of the edge seeds: the same
// configuration replays the same nested event logs and global weights as
// running one whole edge step at a time would.
type Hierarchy struct {
	cfg   HierConfig
	cost  CostModel
	edges []*Edge

	global   nn.State
	version  int
	clock    float64
	arrivals queue[arrival]
	buffer   []agg.Update

	log     []string
	commits []GlobalCommit
	// discountSum accumulates StalenessDiscount over every edge update
	// folded into the global buffer — the global-tier anchor for the trace
	// auditor's discount reconciliation (mirrors Engine.DiscountSum).
	discountSum float64

	// begun counts edge steps started; park carries a running step's
	// hand-back: false at a join, true once Engine.Step returned.
	begun int64
	park  chan bool
}

// NewHierarchy builds the two-tier topology over prepared edges. cost
// prices the edge→cloud uplink; the initial global model is edge 0's
// (all edges are built from the same model config, so they agree). Every
// edge engine trains on edge 0's executor, so at most its width of
// trainings (and training arenas) are live across the topology however
// many edge steps overlap.
func NewHierarchy(edges []*Edge, cost CostModel, cfg HierConfig) (*Hierarchy, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("sched: hierarchy needs at least one edge")
	}
	for i, ed := range edges {
		if ed == nil || ed.Srv == nil || ed.Eng == nil {
			return nil, fmt.Errorf("sched: edge %d is missing its server or engine", i)
		}
	}
	if cost == nil {
		return nil, fmt.Errorf("sched: hierarchy needs a cost model")
	}
	if cfg.GlobalBuffer <= 0 {
		cfg.GlobalBuffer = len(edges) / 2
		if cfg.GlobalBuffer < 1 {
			cfg.GlobalBuffer = 1
		}
	}
	switch {
	case cfg.StalenessExp == 0:
		cfg.StalenessExp = 0.5
	case cfg.StalenessExp < 0:
		cfg.StalenessExp = 0
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 1
	}
	h := &Hierarchy{cfg: cfg, cost: cost, edges: edges, global: edges[0].Srv.Global(), park: make(chan bool)}
	for i, ed := range edges {
		ed.id = i
		// Tag the edge engine's spans so a shared trace sink can group
		// flights and commits per edge.
		ed.Eng.SetSpanEdge(i)
		ed.Eng.exec = edges[0].Eng.exec
		wake := make(chan struct{})
		ed.wake = wake
		ed.Eng.yield = func() {
			h.park <- false
			<-wake
		}
	}
	return h, nil
}

// Clock returns the global tier's virtual time (the arrival time of the
// last update folded into the global buffer).
func (h *Hierarchy) Clock() float64 { return h.clock }

// Version returns the number of global merges so far.
func (h *Hierarchy) Version() int { return h.version }

// Global returns the current global-tier model state.
func (h *Hierarchy) Global() nn.State { return h.global }

// Commits returns the global merges so far.
func (h *Hierarchy) Commits() []GlobalCommit { return h.commits }

// DiscountSum returns the accumulated staleness discount over every edge
// update folded into the global tier.
func (h *Hierarchy) DiscountSum() float64 { return h.discountSum }

// StalenessExp returns the normalized global-tier staleness exponent.
func (h *Hierarchy) StalenessExp() float64 { return h.cfg.StalenessExp }

// Log returns the global tier's event log: edge commits entering transit,
// arrivals folding into the buffer, down-syncs, and global merges. Each
// edge's own engine log (Edges()[i].Eng.Log()) nests under it — together
// they are the run's full, deterministic event record.
func (h *Hierarchy) Log() []string { return h.log }

// Edges exposes the topology (read-only use intended).
func (h *Hierarchy) Edges() []*Edge { return h.edges }

func (h *Hierarchy) logf(format string, args ...any) {
	h.log = append(h.log, fmt.Sprintf(format, args...))
}

// next returns the edge to advance: the smallest key, where a suspended
// step's key is its clock and wins ties in begin order, and an idle
// edge's key is its clock, then its index.
func (h *Hierarchy) next() *Edge {
	best := h.edges[0]
	for _, ed := range h.edges[1:] {
		c, bc := ed.Eng.Clock(), best.Eng.Clock()
		if c < bc || c == bc && ed.ord != 0 && (best.ord == 0 || ed.ord < best.ord) {
			best = ed
		}
	}
	return best
}

// minClock is the smallest key: no edge can emit an update arriving
// before it.
func (h *Hierarchy) minClock() float64 {
	lo := math.Inf(1)
	for _, ed := range h.edges {
		if c := ed.Eng.Clock(); c < lo {
			lo = c
		}
	}
	return lo
}

// uplinkTime prices one edge→cloud model upload: the full global-size
// model (the largest pool member) from a Strong-class endpoint, through
// the same cost model that prices client dispatches.
func (h *Hierarchy) uplinkTime(ed *Edge) float64 {
	largest := ed.Srv.Pool().Largest()
	d := core.Dispatch{Sent: largest, Got: largest}
	_, _, up := h.cost.DispatchTimes(core.Strong, d, 1, h.cfg.Epochs)
	return up
}

// advance runs ed's step — beginning it if the edge is idle — on the
// step's goroutine until its next join or its end, and reports whether
// it ended. The hierarchy waits meanwhile, so only one goroutine ever
// runs control code.
func (h *Hierarchy) advance(ed *Edge) bool {
	if ed.ord == 0 {
		h.begun++
		ed.ord = h.begun
		go func() {
			ed.commit, ed.err = ed.Eng.Step()
			h.park <- true
		}()
	} else {
		ed.wake <- struct{}{}
	}
	return <-h.park
}

// finish settles an ended step: the edge goes idle and its commit, if it
// merged anything, enters transit to the global tier. The step's begin
// ordinal is the arrival's tie-break, so equal arrival times resolve in
// the order the steps began.
func (h *Hierarchy) finish(ed *Edge) error {
	ord := ed.ord
	ed.ord = 0
	if ed.err != nil {
		return fmt.Errorf("sched: edge %d: %w", ed.id, ed.err)
	}
	c := ed.commit
	if c.Merged > 0 {
		at := ed.Eng.Clock() + h.uplinkTime(ed)
		h.arrivals.push(at, ord, arrival{edge: ed.id, state: ed.Srv.Global(),
			weight: float64(c.Merged), anchor: ed.anchor})
		h.logf("%.3f edge-commit edge=%d round=%d merged=%d arrive=%.3f",
			ed.Eng.Clock(), ed.id, c.Round, c.Merged, at)
		if h.cfg.Observer.Enabled() {
			h.cfg.Observer.Span(obs.Span{Kind: obs.KindEdgeCommit,
				Time: ed.Eng.Clock(), Client: -1, Edge: ed.id,
				Round: c.Round, Merged: c.Merged, End: at})
		}
	}
	return nil
}

// drain runs every suspended step to its end, in begin order, and
// returns the first error among them.
func (h *Hierarchy) drain() error {
	var running []*Edge
	for _, ed := range h.edges {
		if ed.ord != 0 {
			running = append(running, ed)
		}
	}
	sort.Slice(running, func(i, j int) bool { return running[i].ord < running[j].ord })
	var first error
	for _, ed := range running {
		for !h.advance(ed) {
		}
		if err := h.finish(ed); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Step advances the topology until the next global merge and returns it.
// No edge step is left suspended when it returns, with or without an
// error.
func (h *Hierarchy) Step() (gc GlobalCommit, err error) {
	defer func() {
		if derr := h.drain(); err == nil && derr != nil {
			gc, err = GlobalCommit{}, derr
		}
	}()
	for {
		ed := h.next()
		if ed.ord == 0 && ed.pendingSync {
			// The edge's clock is past the merge that set the flag (the
			// conservative drain guarantees it), so syncing now is a causal
			// downlink, not time travel.
			ed.Srv.SyncGlobal(h.global)
			ed.anchor = h.version
			ed.pendingSync = false
			h.logf("%.3f down-sync edge=%d version=%d", ed.Eng.Clock(), ed.id, h.version)
			if h.cfg.Observer.Enabled() {
				h.cfg.Observer.Span(obs.Span{Kind: obs.KindDownSync,
					Time: ed.Eng.Clock(), Client: -1, Edge: ed.id, Round: h.version})
			}
		}
		if h.advance(ed) {
			if err := h.finish(ed); err != nil {
				return GlobalCommit{}, err
			}
		}
		if gc, merged, err := h.fold(); merged || err != nil {
			return gc, err
		}
	}
}

// fold moves every in-transit update no edge can beat anymore into the
// global buffer, and merges once the buffer is full.
func (h *Hierarchy) fold() (GlobalCommit, bool, error) {
	safe := h.minClock()
	for len(h.arrivals) > 0 && h.arrivals[0].t <= safe {
		t, a := h.arrivals.pop()
		h.clock = t
		stale := h.version - a.anchor
		f := StalenessDiscount(stale, h.cfg.StalenessExp)
		h.buffer = append(h.buffer, agg.Update{State: a.state, Weight: a.weight * f})
		h.discountSum += f
		h.logf("%.3f global-arrive edge=%d stale=%d", t, a.edge, stale)
		if h.cfg.Observer.Enabled() {
			h.cfg.Observer.Span(obs.Span{Kind: obs.KindGlobalArrive,
				Time: t, Client: -1, Edge: a.edge, Staleness: stale})
		}
		if len(h.buffer) < h.cfg.GlobalBuffer {
			continue
		}
		next, err := agg.Aggregate(h.global, h.buffer)
		if err != nil {
			return GlobalCommit{}, false, fmt.Errorf("sched: global merge: %w", err)
		}
		h.global = next
		h.version++
		gc := GlobalCommit{Round: h.version, Time: h.clock, Merged: len(h.buffer)}
		h.buffer = nil
		for _, e := range h.edges {
			e.pendingSync = true
		}
		h.commits = append(h.commits, gc)
		h.logf("%.3f global-commit version=%d merged=%d", gc.Time, gc.Round, gc.Merged)
		if h.cfg.Observer.Enabled() {
			h.cfg.Observer.Span(obs.Span{Kind: obs.KindGlobalMerge,
				Time: gc.Time, Client: -1, Round: gc.Round, Merged: gc.Merged})
		}
		return gc, true, nil
	}
	return GlobalCommit{}, false, nil
}

// Run performs n global merges, invoking cb (if non-nil) after each; cb
// returning false stops early.
func (h *Hierarchy) Run(n int, cb func(GlobalCommit) bool) error {
	for i := 0; i < n; i++ {
		gc, err := h.Step()
		if err != nil {
			return err
		}
		if cb != nil && !cb(gc) {
			return nil
		}
	}
	return nil
}

// OffsetTrace exposes a shard's view of a base trace: local client c maps
// to base client c+Offset, so every edge of a sharded population reads
// exactly the availability timeline the flat fleet would. It deliberately
// does not forward Compactor — edges sit at different virtual times, so
// one edge retiring behind its own clock could drop state another edge
// still needs; sharded runs use the stateless PopTrace, which has nothing
// to retire.
type OffsetTrace struct {
	Base   Trace
	Offset int
}

// Window implements Trace.
func (o OffsetTrace) Window(c int, t float64) (bool, float64, float64) {
	return o.Base.Window(c+o.Offset, t)
}
