package sched

import (
	"fmt"
	"math"
	"math/rand"

	"adaptivefl/internal/spec"
)

// Trace supplies per-client availability and speed over virtual time,
// modelling the paper's uncertain AIoT operating environments: devices go
// offline, come back, and fluctuate in effective training speed as
// co-located workloads contend for the board.
type Trace interface {
	// Window returns the trace segment containing virtual time t for
	// client c: whether the client is reachable, the training slowdown
	// factor for the segment (1 = nominal speed, 10 = ten times slower),
	// and the virtual time at which the segment ends (+Inf for never). A
	// dispatch that would finish after its segment ends is dropped: the
	// client went away mid-flight.
	Window(c int, t float64) (up bool, slow float64, until float64)
}

// AlwaysOn is the trivial trace: every client reachable at nominal speed
// forever. It is the default trace, and under it the sync policy never
// drops a flight: every dispatched client reaches the barrier.
type AlwaysOn struct{}

// Window implements Trace.
func (AlwaysOn) Window(int, float64) (bool, float64, float64) {
	return true, 1, math.Inf(1)
}

// segment is one piecewise-constant span of a client's timeline.
type segment struct {
	end  float64 // exclusive
	up   bool
	slow float64
}

// RandomTrace deterministically generates per-client timelines of
// alternating on/off segments with per-segment slowdown factors. Every
// client's stream is seeded independently from Seed, so the same
// (Seed, parameters) pair always yields the same timeline regardless of
// query order — the property the scheduler's determinism test pins.
type RandomTrace struct {
	// Seed drives every client's segment stream.
	Seed int64
	// MeanOn is the mean duration (seconds, exponential) of an on
	// segment. Zero defaults to 60.
	MeanOn float64
	// MeanOff is the mean duration of an off segment; 0 means clients
	// never go offline (the trace only fluctuates speed).
	MeanOff float64
	// SlowProb is the chance an on segment runs slowed.
	SlowProb float64
	// SlowFactor multiplies training time during slowed segments (≥ 1).
	SlowFactor float64
	// SlowOnly restricts slowdown to clients for which it returns true
	// (nil = every client can slow). The straggler spec wires the weak
	// device class here.
	SlowOnly func(c int) bool

	segs map[int][]segment
	rngs map[int]*rand.Rand
}

// minSegment floors segment durations so a pathological rng draw cannot
// produce a zero-length window (which would drop every dispatch).
const minSegment = 1e-3

// extend generates client c's timeline until it covers time t.
func (r *RandomTrace) extend(c int, t float64) []segment {
	if r.segs == nil {
		r.segs = map[int][]segment{}
		r.rngs = map[int]*rand.Rand{}
	}
	rng, ok := r.rngs[c]
	if !ok {
		rng = rand.New(rand.NewSource(r.Seed + int64(c)*1_000_003 + 7))
		r.rngs[c] = rng
	}
	segs := r.segs[c]
	meanOn := r.MeanOn
	if meanOn <= 0 {
		meanOn = 60
	}
	last := 0.0
	if len(segs) > 0 {
		last = segs[len(segs)-1].end
	}
	for last <= t {
		// On segment, with an optional slowdown.
		d := meanOn * rng.ExpFloat64()
		if d < minSegment {
			d = minSegment
		}
		slow := 1.0
		if r.SlowFactor > 1 && (r.SlowOnly == nil || r.SlowOnly(c)) && rng.Float64() < r.SlowProb {
			slow = r.SlowFactor
		}
		last += d
		segs = append(segs, segment{end: last, up: true, slow: slow})
		// Off segment, if the trace has churn.
		if r.MeanOff > 0 {
			d = r.MeanOff * rng.ExpFloat64()
			if d < minSegment {
				d = minSegment
			}
			last += d
			segs = append(segs, segment{end: last, up: false, slow: 1})
		}
	}
	r.segs[c] = segs
	return segs
}

// Retire discards every generated segment that ends at or before t,
// implementing the engine's Compactor hook. Without it a long-horizon run
// accretes O(time) segments per client (extend only ever appends). Safe
// whenever the caller's future queries are all at times > retired — the
// engine's virtual clock is monotonic, so it retires behind the clock
// once per Step. Callers that query out of order (the trace's documented
// general contract) simply never call Retire. Per client, compaction
// waits until retireSlack segments are droppable so the slice copy is
// amortised; memory stays bounded by the active window + slack either way.
func (r *RandomTrace) Retire(t float64) {
	for c, segs := range r.segs {
		// First surviving segment: the first one ending after t. The final
		// segment always survives — extend derives the timeline's current
		// frontier from it, so dropping it would restart the client's
		// clock at zero mid-stream.
		lo := 0
		for lo < len(segs)-1 && segs[lo].end <= t {
			lo++
		}
		if lo < retireSlack {
			continue
		}
		kept := make([]segment, len(segs)-lo)
		copy(kept, segs[lo:])
		r.segs[c] = kept
	}
}

// retireSlack is the per-client droppable-segment count below which Retire
// leaves a timeline alone (compaction batching).
const retireSlack = 16

// SegmentCount reports the generated segments currently held across all
// clients — the quantity Retire bounds (regression-tested).
func (r *RandomTrace) SegmentCount() int {
	n := 0
	for _, segs := range r.segs {
		n += len(segs)
	}
	return n
}

// Window implements Trace.
func (r *RandomTrace) Window(c int, t float64) (bool, float64, float64) {
	segs := r.extend(c, t)
	// Binary search the first segment ending after t.
	lo, hi := 0, len(segs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if segs[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s := segs[lo]
	return s.up, s.slow, s.end
}

// ParseTrace builds a Trace from a compact spec string:
//
//	""
//	"always"                          — every client always on
//	"straggler[:slow=10,prob=0.5,on=30]" — clients for which weak returns
//	    true run slow-factor segments intermittently; nobody goes offline
//	"churn[:on=60,off=20,slow=4,prob=0.2]" — everyone cycles on/off, with
//	    optional slowdown segments
//
// seed drives the generated timelines; weak marks the clients the
// straggler spec slows (nil slows everyone).
func ParseTrace(traceSpec string, seed int64, weak func(c int) bool) (Trace, error) {
	name, args, err := spec.Parse("sched", "trace", traceSpec)
	if err != nil {
		return nil, err
	}
	var tr Trace
	switch name {
	case "", "always":
		tr = AlwaysOn{}
	case "straggler":
		tr = &RandomTrace{
			Seed:       seed,
			MeanOn:     args.Float("on", 30),
			SlowProb:   args.Float("prob", 0.5),
			SlowFactor: args.Float("slow", 10),
			SlowOnly:   weak,
		}
	case "churn":
		tr = &RandomTrace{
			Seed:       seed,
			MeanOn:     args.Float("on", 60),
			MeanOff:    args.Float("off", 20),
			SlowProb:   args.Float("prob", 0),
			SlowFactor: args.Float("slow", 1),
		}
	default:
		return nil, fmt.Errorf("sched: unknown trace %q (always|straggler|churn)", name)
	}
	if err := args.Finish(); err != nil {
		return nil, err
	}
	return tr, nil
}
