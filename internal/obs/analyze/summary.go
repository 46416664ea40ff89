package analyze

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"adaptivefl/internal/obs"
)

// histogram bucket layouts for the report (virtual seconds and
// staleness). Fixed at compile time so reports diff cleanly across runs.
var (
	phaseBuckets = []float64{1, 5, 15, 30, 60, 120, 300, 600, 1800, 3600}
	staleBuckets = []float64{0, 1, 2, 4, 8, 16, 32}
)

// hist is a fixed-bucket histogram for report output (the analyzer is
// single-goroutine, so no atomics).
type hist struct {
	bounds []float64
	counts []int64
	sum    float64
	n      int64
	max    float64
}

func newHist(bounds []float64) *hist {
	return &hist{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *hist) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) write(w io.Writer, indent string) {
	if h.n == 0 {
		fmt.Fprintf(w, "%s(empty)\n", indent)
		return
	}
	for i, b := range h.bounds {
		if h.counts[i] == 0 {
			continue
		}
		lo := "0"
		if i > 0 {
			lo = strconv.FormatFloat(h.bounds[i-1], 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s(%s, %s]: %d\n", indent, lo, strconv.FormatFloat(b, 'g', -1, 64), h.counts[i])
	}
	if c := h.counts[len(h.bounds)]; c > 0 {
		fmt.Fprintf(w, "%s(%s, +Inf]: %d\n", indent,
			strconv.FormatFloat(h.bounds[len(h.bounds)-1], 'g', -1, 64), c)
	}
	fmt.Fprintf(w, "%scount=%d mean=%.3f max=%.3f\n", indent, h.n, h.sum/float64(h.n), h.max)
}

// pendingFlight is the bounded per-commit state: one finalised flight
// awaiting its group's commit span.
type pendingFlight struct {
	flight                        int64
	client                        int
	start, downEnd, trainEnd, end float64
	outcome                       string
	downBytes, upBytes            int64
}

// byteAgg accumulates a byte/count breakdown under one key (width, codec,
// outcome, client).
type byteAgg struct {
	flights            int64
	down, up           int64
	wastedDown, wasted int64 // bytes on flights that never merged
}

func (a *byteAgg) add(sp obs.Span) {
	a.flights++
	a.down += sp.DownBytes
	a.up += sp.UpBytes
	if sp.Outcome == obs.OutcomeDropped || sp.Outcome == obs.OutcomeFailed || sp.Outcome == obs.OutcomeLate {
		a.wastedDown += sp.DownBytes
		a.wasted += sp.DownBytes + sp.UpBytes
	}
}

// commitRow is one aggregation's critical-path record.
type commitRow struct {
	edge, round                                 int
	t, dur                                      float64
	merged, failed, late, reused, dropped       int
	closerFlight                                int64
	closerClient                                int
	closerOutcome                               string
	closerDown, closerTrain, closerUp, closerTo float64 // phase decomposition
	stragglers                                  int
}

// edgeState is the per-edge streaming state: the flights finalised since
// the edge's last commit, and the time of that commit.
type edgeState struct {
	pending    []pendingFlight
	lastCommit float64
	hasCommit  bool
}

// backhaul aggregates one edge's edge-commit transit lags.
type backhaul struct {
	n        int64
	sum, max float64
}

// topCommits bounds how many slowest commits the report details.
const topCommits = 10

// Summary is the streaming trace analyzer: feed every span with Add, then
// render with Write. Memory is bounded by the per-commit pending set, the
// per-key breakdown maps (clients actually dispatched, not the population
// size) and fixed-size histograms.
type Summary struct {
	kinds    map[string]int64
	outcomes map[string]int64

	down, up                 int64
	wastedDown, wastedUp     int64
	downPaths                map[string]int64 // flights by serving path (empty path omitted)
	trainSkipped             int64
	downSum, trainSum, upSum float64 // phase sums over flights with full phase info
	phased                   int64

	byWidth   map[string]*byteAgg
	byCodec   map[string]*byteAgg
	byOutcome map[string]*byteAgg
	byClient  map[int]*byteAgg

	durHist   *hist
	downHist  *hist
	trainHist *hist
	upHist    *hist
	staleHist *hist

	edges   map[int]*edgeState
	commits int64
	// critical-path aggregates over every commit's closing flight
	critDown, critTrain, critUp float64
	critPhased                  int64
	stragglers                  int64
	slowest                     []commitRow

	// hierarchy
	backhauls   map[int]*backhaul
	globalStale *hist
	downSyncs   int64
	globalMerge int64

	lruMade, lruEvict int64
}

// NewSummary builds an empty analyzer.
func NewSummary() *Summary {
	return &Summary{
		kinds:       map[string]int64{},
		outcomes:    map[string]int64{},
		downPaths:   map[string]int64{},
		byWidth:     map[string]*byteAgg{},
		byCodec:     map[string]*byteAgg{},
		byOutcome:   map[string]*byteAgg{},
		byClient:    map[int]*byteAgg{},
		durHist:     newHist(phaseBuckets),
		downHist:    newHist(phaseBuckets),
		trainHist:   newHist(phaseBuckets),
		upHist:      newHist(phaseBuckets),
		staleHist:   newHist(staleBuckets),
		edges:       map[int]*edgeState{},
		backhauls:   map[int]*backhaul{},
		globalStale: newHist(staleBuckets),
	}
}

func (s *Summary) edge(id int) *edgeState {
	e := s.edges[id]
	if e == nil {
		e = &edgeState{}
		s.edges[id] = e
	}
	return e
}

func agg(m map[string]*byteAgg, key string, sp obs.Span) {
	a := m[key]
	if a == nil {
		a = &byteAgg{}
		m[key] = a
	}
	a.add(sp)
}

// Add folds one span into the analyzer. Spans must arrive in trace order
// (commit grouping depends on it).
func (s *Summary) Add(sp obs.Span) {
	s.kinds[sp.Kind]++
	switch sp.Kind {
	case obs.KindFlight:
		s.addFlight(sp)
	case obs.KindCommit:
		s.addCommit(sp)
	case obs.KindEdgeCommit:
		b := s.backhauls[sp.Edge]
		if b == nil {
			b = &backhaul{}
			s.backhauls[sp.Edge] = b
		}
		lag := sp.End - sp.Time
		b.n++
		b.sum += lag
		if lag > b.max {
			b.max = lag
		}
	case obs.KindGlobalArrive:
		s.globalStale.observe(float64(sp.Staleness))
	case obs.KindGlobalMerge:
		s.globalMerge++
	case obs.KindDownSync:
		s.downSyncs++
	case obs.KindLRU:
		switch sp.Op {
		case obs.OpMaterialise:
			s.lruMade++
		case obs.OpEvict:
			s.lruEvict++
		}
	}
}

func (s *Summary) addFlight(sp obs.Span) {
	s.outcomes[sp.Outcome]++
	s.down += sp.DownBytes
	s.up += sp.UpBytes
	if sp.DownPath != "" {
		s.downPaths[sp.DownPath]++
	}
	if sp.TrainSkipped {
		s.trainSkipped++
	}
	if sp.Outcome == obs.OutcomeDropped || sp.Outcome == obs.OutcomeFailed || sp.Outcome == obs.OutcomeLate {
		s.wastedDown += sp.DownBytes
		s.wastedUp += sp.UpBytes
	}
	agg(s.byWidth, sp.Sent, sp)
	if sp.Codec != "" {
		agg(s.byCodec, sp.Codec, sp)
	}
	agg(s.byOutcome, sp.Outcome, sp)
	agg2 := s.byClient[sp.Client]
	if agg2 == nil {
		agg2 = &byteAgg{}
		s.byClient[sp.Client] = agg2
	}
	agg2.add(sp)

	if sp.End > sp.Start {
		s.durHist.observe(sp.End - sp.Start)
	}
	if sp.DownEnd > 0 && sp.TrainEnd > 0 && sp.End >= sp.TrainEnd {
		s.downSum += sp.DownEnd - sp.Start
		s.trainSum += sp.TrainEnd - sp.DownEnd
		s.upSum += sp.End - sp.TrainEnd
		s.phased++
		s.downHist.observe(sp.DownEnd - sp.Start)
		s.trainHist.observe(sp.TrainEnd - sp.DownEnd)
		s.upHist.observe(sp.End - sp.TrainEnd)
	}
	if sp.Outcome == obs.OutcomeMerged || sp.Outcome == obs.OutcomeLateReused {
		s.staleHist.observe(float64(sp.Staleness))
	}

	e := s.edge(sp.Edge)
	e.pending = append(e.pending, pendingFlight{
		flight: sp.Flight, client: sp.Client,
		start: sp.Start, downEnd: sp.DownEnd, trainEnd: sp.TrainEnd, end: sp.End,
		outcome: sp.Outcome, downBytes: sp.DownBytes, upBytes: sp.UpBytes,
	})
}

func (s *Summary) addCommit(sp obs.Span) {
	s.commits++
	e := s.edge(sp.Edge)
	row := commitRow{
		edge: sp.Edge, round: sp.Round, t: sp.Time,
		merged: sp.Merged, failed: sp.Failed, late: sp.Late,
		reused: sp.Reused, dropped: sp.Dropped,
		closerClient: -1,
	}
	if e.hasCommit {
		row.dur = sp.Time - e.lastCommit
	} else {
		row.dur = sp.Time
	}
	// The closing flight: the last upload the server heard before the
	// commit — max End among the group's flights with End ≤ commit time
	// (deadline stragglers end later; they were cancelled, not waited on).
	// Ties break on flight ID, deterministically.
	var closer *pendingFlight
	for i := range e.pending {
		p := &e.pending[i]
		if p.end > sp.Time {
			row.stragglers++
			continue
		}
		if closer == nil || p.end > closer.end || (p.end == closer.end && p.flight > closer.flight) {
			closer = p
		}
	}
	if closer != nil {
		row.closerFlight = closer.flight
		row.closerClient = closer.client
		row.closerOutcome = closer.outcome
		row.closerTo = closer.end - closer.start
		if closer.downEnd > 0 && closer.trainEnd > 0 && closer.end >= closer.trainEnd {
			row.closerDown = closer.downEnd - closer.start
			row.closerTrain = closer.trainEnd - closer.downEnd
			row.closerUp = closer.end - closer.trainEnd
			s.critDown += row.closerDown
			s.critTrain += row.closerTrain
			s.critUp += row.closerUp
			s.critPhased++
		}
	}
	s.stragglers += int64(row.stragglers)
	e.pending = e.pending[:0]
	e.lastCommit, e.hasCommit = sp.Time, true

	s.slowest = append(s.slowest, row)
	sort.Slice(s.slowest, func(i, j int) bool {
		a, b := s.slowest[i], s.slowest[j]
		if a.dur != b.dur {
			return a.dur > b.dur
		}
		if a.t != b.t {
			return a.t < b.t
		}
		return a.edge < b.edge
	})
	if len(s.slowest) > topCommits {
		s.slowest = s.slowest[:topCommits]
	}
}

// Summarize streams a whole trace into a fresh Summary.
func Summarize(r io.Reader) (*Summary, error) {
	s := NewSummary()
	if err := ForEachSpan(r, func(sp obs.Span) error {
		s.Add(sp)
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}

func sortedKeys(m map[string]*byteAgg) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeAggTable(w io.Writer, title, keyName string, m map[string]*byteAgg) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-14s %9s %14s %14s %14s\n", keyName, "flights", "down_bytes", "up_bytes", "wasted_bytes")
	for _, k := range sortedKeys(m) {
		a := m[k]
		fmt.Fprintf(w, "%-14s %9d %14d %14d %14d\n", k, a.flights, a.down, a.up, a.wasted)
	}
}

// Write renders the deterministic report: overview, waste/bytes
// breakdowns, critical-path analysis, histograms, and (for hierarchy
// traces) backhaul stats. topClients bounds the per-client table.
func (s *Summary) Write(w io.Writer, topClients int) {
	fmt.Fprintf(w, "== overview ==\n")
	for _, k := range []string{obs.KindFlight, obs.KindCommit, obs.KindEdgeCommit,
		obs.KindGlobalArrive, obs.KindGlobalMerge, obs.KindDownSync, obs.KindLRU} {
		if n := s.kinds[k]; n > 0 {
			fmt.Fprintf(w, "spans %-13s %d\n", k, n)
		}
	}
	for _, oc := range []string{obs.OutcomeMerged, obs.OutcomeLateReused, obs.OutcomeLate,
		obs.OutcomeDropped, obs.OutcomeFailed} {
		if n := s.outcomes[oc]; n > 0 {
			fmt.Fprintf(w, "flights %-11s %d\n", oc, n)
		}
	}
	if s.trainSkipped > 0 {
		fmt.Fprintf(w, "train skipped       %d\n", s.trainSkipped)
	}

	fmt.Fprintf(w, "\n== bytes ==\n")
	fmt.Fprintf(w, "down %d  up %d\n", s.down, s.up)
	if s.down > 0 {
		fmt.Fprintf(w, "wasted down %d (%.1f%%)  wasted up %d\n",
			s.wastedDown, 100*float64(s.wastedDown)/float64(s.down), s.wastedUp)
	}
	if len(s.downPaths) > 0 {
		// Down bytes are the logical artifact size on every path; only
		// encoded-once dispatches paid a codec encode, and not-modified
		// ones moved no body at all.
		fmt.Fprintf(w, "downlink serving:")
		for _, p := range []string{obs.DownEncodedOnce, obs.DownReserved, obs.DownNotModified} {
			if n := s.downPaths[p]; n > 0 {
				fmt.Fprintf(w, "  %s %d", p, n)
			}
		}
		fmt.Fprintf(w, "\n")
	}

	writeAggTable(w, "by outcome", "outcome", s.byOutcome)
	writeAggTable(w, "by width", "width", s.byWidth)
	writeAggTable(w, "by codec", "codec", s.byCodec)

	if len(s.byClient) > 0 && topClients > 0 {
		type kv struct {
			c int
			a *byteAgg
		}
		rows := make([]kv, 0, len(s.byClient))
		for c, a := range s.byClient {
			rows = append(rows, kv{c, a})
		}
		sort.Slice(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			if a.a.wasted != b.a.wasted {
				return a.a.wasted > b.a.wasted
			}
			if a.a.down+a.a.up != b.a.down+b.a.up {
				return a.a.down+a.a.up > b.a.down+b.a.up
			}
			return a.c < b.c
		})
		if len(rows) > topClients {
			rows = rows[:topClients]
		}
		fmt.Fprintf(w, "\n== top clients by wasted bytes (of %d seen) ==\n", len(s.byClient))
		fmt.Fprintf(w, "%-10s %9s %14s %14s %14s\n", "client", "flights", "down_bytes", "up_bytes", "wasted_bytes")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10d %9d %14d %14d %14d\n", r.c, r.a.flights, r.a.down, r.a.up, r.a.wasted)
		}
	}

	fmt.Fprintf(w, "\n== critical path ==\n")
	fmt.Fprintf(w, "commits %d  stragglers past close %d\n", s.commits, s.stragglers)
	if s.critPhased > 0 {
		n := float64(s.critPhased)
		tot := s.critDown + s.critTrain + s.critUp
		fmt.Fprintf(w, "closing-flight phase means over %d commits: down %.3fs train %.3fs up %.3fs\n",
			s.critPhased, s.critDown/n, s.critTrain/n, s.critUp/n)
		if tot > 0 {
			fmt.Fprintf(w, "critical-path share: down %.1f%% train %.1f%% up %.1f%%\n",
				100*s.critDown/tot, 100*s.critTrain/tot, 100*s.critUp/tot)
		}
	}
	if len(s.slowest) > 0 {
		fmt.Fprintf(w, "\nslowest commits (by round duration):\n")
		fmt.Fprintf(w, "%-5s %-6s %12s %10s %7s %6s %5s %7s  %s\n",
			"edge", "round", "t", "dur", "merged", "late", "drop", "strag", "closed by")
		for _, r := range s.slowest {
			closer := "-"
			if r.closerClient >= 0 {
				closer = fmt.Sprintf("c%d %s", r.closerClient, r.closerOutcome)
				if r.closerTrain > 0 {
					closer += fmt.Sprintf(" (down %.1fs train %.1fs up %.1fs)",
						r.closerDown, r.closerTrain, r.closerUp)
				} else if r.closerTo > 0 {
					closer += fmt.Sprintf(" (%.1fs)", r.closerTo)
				}
			}
			fmt.Fprintf(w, "%-5d %-6d %12.3f %10.3f %7d %6d %5d %7d  %s\n",
				r.edge, r.round, r.t, r.dur, r.merged, r.late, r.dropped, r.stragglers, closer)
		}
	}

	if s.phased > 0 {
		n := float64(s.phased)
		fmt.Fprintf(w, "\n== phase means over %d fully-phased flights ==\n", s.phased)
		fmt.Fprintf(w, "down %.3fs  train %.3fs  up %.3fs\n", s.downSum/n, s.trainSum/n, s.upSum/n)
	}

	fmt.Fprintf(w, "\n== flight duration (virtual s) ==\n")
	s.durHist.write(w, "  ")
	if s.phased > 0 {
		fmt.Fprintf(w, "== down phase (virtual s) ==\n")
		s.downHist.write(w, "  ")
		fmt.Fprintf(w, "== train phase (virtual s) ==\n")
		s.trainHist.write(w, "  ")
		fmt.Fprintf(w, "== up phase (virtual s) ==\n")
		s.upHist.write(w, "  ")
	}
	fmt.Fprintf(w, "== staleness of merged/late-reused flights ==\n")
	s.staleHist.write(w, "  ")

	if len(s.backhauls) > 0 {
		fmt.Fprintf(w, "\n== hierarchy ==\n")
		fmt.Fprintf(w, "global merges %d  down-syncs %d\n", s.globalMerge, s.downSyncs)
		ids := make([]int, 0, len(s.backhauls))
		for id := range s.backhauls {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Fprintf(w, "%-5s %9s %12s %12s\n", "edge", "commits", "mean_lag_s", "max_lag_s")
		for _, id := range ids {
			b := s.backhauls[id]
			fmt.Fprintf(w, "%-5d %9d %12.3f %12.3f\n", id, b.n, b.sum/float64(b.n), b.max)
		}
		fmt.Fprintf(w, "global-arrive staleness:\n")
		s.globalStale.write(w, "  ")
	}

	if s.lruMade > 0 || s.lruEvict > 0 {
		fmt.Fprintf(w, "\n== lru ==\n")
		fmt.Fprintf(w, "materialised %d  evicted %d  live %d\n",
			s.lruMade, s.lruEvict, s.lruMade-s.lruEvict)
	}
}
