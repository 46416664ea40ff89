package analyze

import (
	"fmt"
	"io"
	"math"
	"sort"

	"adaptivefl/internal/obs"
	"adaptivefl/internal/sched"
)

// discountTol is the relative tolerance for reconciling floating-point
// discount sums: the run and the auditor add the same StalenessDiscount
// terms, but possibly in a different order.
const discountTol = 1e-9

// auditEdge is one tier group's replay state: the outcome census since
// its last commit, and the replayed model version (bumped by every
// non-empty commit and every down-sync — exactly the two paths that move
// core.Server.version).
type auditEdge struct {
	version                          int
	pendMerged, pendReused, pendLate int
	pendFailed, pendDropped          int
	pendRejected, pendClipped        int
	commits                          int
	anchor                           int   // global version at last down-sync
	arrivalAnchors                   []int // FIFO: anchors of edge-commits in backhaul transit
}

// Auditor replays a span stream and cross-checks conservation invariants
// — per-commit outcome counts, byte totals, staleness arithmetic,
// discount sums, LRU balance — against an optional LedgerSummary. Feed
// spans with Add, then call Finish. Memory is bounded per edge group, so
// million-flight traces stream through it.
type Auditor struct {
	ledger     *LedgerSummary
	violations []string

	edges map[int]*auditEdge

	flights, commitSpans               int64
	merged, late, lateReused           int64
	dropped, failed, trainSkipped      int64
	rejected, clipped                  int64
	down, up                           int64
	downOnce, downReserved, downNotMod int64
	discountSum                        float64
	globalVersion                      int
	globalArrives, globalMergedSum     int64
	globalMerges, downSyncs, edgeComms int64
	globalDiscount                     float64
	lruMade, lruEvict                  int64
}

// NewAuditor builds an auditor. ledger may be nil: the stream-internal
// invariants (commit census, staleness replay, LRU balance, hierarchy
// conservation) are still checked.
func NewAuditor(ledger *LedgerSummary) *Auditor {
	return &Auditor{ledger: ledger, edges: map[int]*auditEdge{}}
}

func (a *Auditor) violatef(format string, args ...any) {
	a.violations = append(a.violations, fmt.Sprintf(format, args...))
}

func (a *Auditor) edge(id int) *auditEdge {
	e := a.edges[id]
	if e == nil {
		e = &auditEdge{}
		a.edges[id] = e
	}
	return e
}

// Add replays one span. Spans must arrive in trace order — the replay is
// exactly the emission-order argument run in reverse.
func (a *Auditor) Add(sp obs.Span) {
	switch sp.Kind {
	case obs.KindFlight:
		a.addFlight(sp)
	case obs.KindCommit:
		a.addCommit(sp)
	case obs.KindEdgeCommit:
		a.edgeComms++
		e := a.edge(sp.Edge)
		e.arrivalAnchors = append(e.arrivalAnchors, e.anchor)
		if sp.End < sp.Time {
			a.violatef("edge-commit edge=%d round=%d arrives at %.3f before its cut at %.3f",
				sp.Edge, sp.Round, sp.End, sp.Time)
		}
	case obs.KindGlobalArrive:
		a.globalArrives++
		e := a.edge(sp.Edge)
		if len(e.arrivalAnchors) == 0 {
			a.violatef("global-arrive edge=%d t=%.3f without a preceding edge-commit in transit", sp.Edge, sp.Time)
			return
		}
		anchor := e.arrivalAnchors[0]
		e.arrivalAnchors = e.arrivalAnchors[1:]
		if want := a.globalVersion - anchor; sp.Staleness != want {
			a.violatef("global-arrive edge=%d t=%.3f staleness %d, replay says %d (version %d, anchor %d)",
				sp.Edge, sp.Time, sp.Staleness, want, a.globalVersion, anchor)
		}
		if a.ledger != nil {
			a.globalDiscount += sched.StalenessDiscount(sp.Staleness, a.ledger.GlobalStalenessExp)
		}
	case obs.KindGlobalMerge:
		a.globalMerges++
		a.globalMergedSum += int64(sp.Merged)
		if sp.Round != a.globalVersion+1 {
			a.violatef("global-merge t=%.3f version %d, replay expected %d", sp.Time, sp.Round, a.globalVersion+1)
		}
		a.globalVersion = sp.Round
	case obs.KindDownSync:
		a.downSyncs++
		if sp.Round != a.globalVersion {
			a.violatef("down-sync edge=%d t=%.3f to version %d, global tier is at %d",
				sp.Edge, sp.Time, sp.Round, a.globalVersion)
		}
		e := a.edge(sp.Edge)
		e.anchor = sp.Round
		// A down-sync bumps the edge server's version exactly like a commit.
		e.version++
	case obs.KindLRU:
		switch sp.Op {
		case obs.OpMaterialise:
			a.lruMade++
		case obs.OpEvict:
			a.lruEvict++
		}
	}
}

func (a *Auditor) addFlight(sp obs.Span) {
	a.flights++
	a.down += sp.DownBytes
	// Serving-path census. An empty path means the run had no artifact
	// store (every dispatch paid its own encode); the ledger records all
	// zeros there, so only labelled spans count.
	switch sp.DownPath {
	case obs.DownEncodedOnce:
		a.downOnce++
	case obs.DownReserved:
		a.downReserved++
	case obs.DownNotModified:
		a.downNotMod++
	case "":
	default:
		a.violatef("flight %d client %d: unknown down path %q", sp.Flight, sp.Client, sp.DownPath)
	}
	if sp.TrainSkipped {
		a.trainSkipped++
	}
	e := a.edge(sp.Edge)
	switch sp.Outcome {
	case obs.OutcomeMerged:
		a.merged++
		e.pendMerged++
	case obs.OutcomeClipped:
		// A clipped flight IS a fresh merge — the label records that its
		// delta was norm-clipped on the way in.
		a.merged++
		a.clipped++
		e.pendMerged++
		e.pendClipped++
	case obs.OutcomeRejected:
		a.rejected++
		e.pendRejected++
	case obs.OutcomeLateReused:
		a.lateReused++
		e.pendReused++
	case obs.OutcomeLate:
		a.late++
		e.pendLate++
	case obs.OutcomeDropped:
		a.dropped++
		e.pendDropped++
	case obs.OutcomeFailed:
		a.failed++
		e.pendFailed++
	default:
		a.violatef("flight %d client %d: unknown outcome %q", sp.Flight, sp.Client, sp.Outcome)
	}
	// Byte conservation mirrors core.RoundStats.Add: failed and dropped
	// dispatches return nothing.
	if sp.Outcome != obs.OutcomeFailed && sp.Outcome != obs.OutcomeDropped {
		a.up += sp.UpBytes
	}
	if sp.Outcome == obs.OutcomeMerged || sp.Outcome == obs.OutcomeClipped || sp.Outcome == obs.OutcomeLateReused {
		// Staleness replay: the span's anchor version plus its recorded
		// staleness must land exactly on the tier's replayed version.
		if want := e.version - sp.Ver; sp.Staleness != want {
			a.violatef("flight %d client %d edge=%d: staleness %d, replay says %d (version %d, anchor %d)",
				sp.Flight, sp.Client, sp.Edge, sp.Staleness, want, e.version, sp.Ver)
		}
		if a.ledger != nil && a.ledger.HasDiscounts {
			a.discountSum += sched.StalenessDiscount(sp.Staleness, a.ledger.StalenessExp)
		}
	}
}

func (a *Auditor) addCommit(sp obs.Span) {
	a.commitSpans++
	e := a.edge(sp.Edge)
	e.commits++
	fresh := sp.Merged - sp.Reused
	if fresh != e.pendMerged || sp.Reused != e.pendReused || sp.Late != e.pendLate ||
		sp.Failed != e.pendFailed || sp.Dropped != e.pendDropped ||
		sp.Rejected != e.pendRejected || sp.Clipped != e.pendClipped {
		a.violatef("commit edge=%d round=%d t=%.3f counts (merged %d reused %d late %d failed %d dropped %d rejected %d clipped %d) != flight spans since last commit (%d %d %d %d %d %d %d)",
			sp.Edge, sp.Round, sp.Time, fresh, sp.Reused, sp.Late, sp.Failed, sp.Dropped, sp.Rejected, sp.Clipped,
			e.pendMerged, e.pendReused, e.pendLate, e.pendFailed, e.pendDropped, e.pendRejected, e.pendClipped)
	}
	e.pendMerged, e.pendReused, e.pendLate, e.pendFailed, e.pendDropped = 0, 0, 0, 0, 0
	e.pendRejected, e.pendClipped = 0, 0
	if sp.Merged > 0 {
		// ApplyUpdates is a no-op on an empty update set, so the model
		// version moves exactly on non-empty commits.
		e.version++
	}
}

// Finish runs the end-of-stream checks and returns every violation found
// (nil means the trace is conserved and, if a ledger was supplied, agrees
// with it).
func (a *Auditor) Finish() []string {
	ids := make([]int, 0, len(a.edges))
	for id := range a.edges {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := a.edges[id]
		if n := e.pendMerged + e.pendReused + e.pendLate + e.pendFailed + e.pendDropped + e.pendRejected; n > 0 {
			a.violatef("edge=%d: %d flight spans after the last commit", id, n)
		}
	}
	hasGlobal := a.globalMerges > 0 || a.edgeComms > 0
	if hasGlobal {
		// The global tier always returns from a merge with an empty
		// buffer, so every arrival must be accounted for by a merge;
		// edge-commits may legitimately still be in backhaul transit.
		if a.globalArrives != a.globalMergedSum {
			a.violatef("global tier: %d arrivals but merges consumed %d", a.globalArrives, a.globalMergedSum)
		}
		if a.globalArrives > a.edgeComms {
			a.violatef("global tier: %d arrivals exceed %d edge-commits", a.globalArrives, a.edgeComms)
		}
	}
	if a.lruMade-a.lruEvict < 0 {
		a.violatef("lru: %d evictions exceed %d materialisations", a.lruEvict, a.lruMade)
	}

	l := a.ledger
	if l == nil {
		return a.violations
	}
	checkInt := func(name string, got, want int64) {
		if got != want {
			a.violatef("%s: trace %d != ledger %d", name, got, want)
		}
	}
	checkInt("commits", a.commitSpans, int64(l.Commits))
	checkInt("dispatches", a.flights, int64(l.Dispatches))
	checkInt("merged", a.merged, int64(l.Merged))
	checkInt("late", a.late, int64(l.Late))
	checkInt("late-reused", a.lateReused, int64(l.LateReused))
	checkInt("dropped", a.dropped, int64(l.Dropped))
	checkInt("failed", a.failed, int64(l.Failed))
	checkInt("rejected", a.rejected, int64(l.Rejected))
	checkInt("clipped", a.clipped, int64(l.Clipped))
	checkInt("train-skipped", a.trainSkipped, int64(l.TrainSkipped))
	checkInt("down encoded-once", a.downOnce, int64(l.DownEncodedOnce))
	checkInt("down re-served", a.downReserved, int64(l.DownReserved))
	checkInt("down not-modified", a.downNotMod, int64(l.DownNotModified))
	checkInt("sent bytes", a.down, l.SentBytes)
	checkInt("returned bytes", a.up, l.ReturnedBytes)
	if l.HasDiscounts && !closeEnough(a.discountSum, l.DiscountSum) {
		a.violatef("discount sum: trace replays %.12g != ledger %.12g (α=%g)",
			a.discountSum, l.DiscountSum, l.StalenessExp)
	}
	if l.GlobalCommits > 0 || a.globalMerges > 0 {
		checkInt("global merges", a.globalMerges, int64(l.GlobalCommits))
		if !closeEnough(a.globalDiscount, l.GlobalDiscountSum) {
			a.violatef("global discount sum: trace replays %.12g != ledger %.12g (α=%g)",
				a.globalDiscount, l.GlobalDiscountSum, l.GlobalStalenessExp)
		}
	}
	if l.HasLRU {
		checkInt("lru materialised", a.lruMade, l.LRUMade)
		checkInt("lru live", a.lruMade-a.lruEvict, l.LRULive)
	}
	return a.violations
}

func closeEnough(got, want float64) bool {
	scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
	return math.Abs(got-want) <= discountTol*scale
}

// Audit streams a trace against an optional ledger summary and returns
// the violations (nil when conserved).
func Audit(r io.Reader, ledger *LedgerSummary) ([]string, error) {
	a := NewAuditor(ledger)
	if err := ForEachSpan(r, func(sp obs.Span) error {
		a.Add(sp)
		return nil
	}); err != nil {
		return nil, err
	}
	return a.Finish(), nil
}
