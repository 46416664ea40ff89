// Package sched drives federated training through a deterministic
// discrete-event simulation: a virtual clock, a seeded event queue, and
// per-client availability traces (on/off periods, speed fluctuation,
// mid-flight dropouts). It replaces the repository's lock-step "round"
// control flow with events — dispatches are opened against core.Server's
// in-flight set, priced by a cost model (internal/testbed), and collected
// by a pluggable aggregation policy:
//
//   - deadline — over-select K+Δ clients and close the round as soon as K
//     responses are in (or an absolute per-round deadline passes); late
//     uploads still cross the wire but are discarded and ledgered as
//     communication waste.
//   - sync     — the deadline loop with Δ = 0 and no cap: a barrier on
//     every dispatched client. Under the AlwaysOn trace it reproduces the
//     legacy synchronous Round bit-identically, and is the baseline the
//     other policies are measured against.
//   - semiasync — FedBuff-style buffered aggregation: updates merge as
//     soon as B of them arrive, each weighted by a staleness discount
//     1/(1+s)^α, and a new dispatch is cut immediately whenever a client
//     frees up, so fast Xavier boards never idle behind a straggling Pi.
//
// Everything is deterministic for a fixed (seed, trace, cost model):
// events are ordered by (virtual time, issue sequence) on one queue type
// that the two-tier Hierarchy's global tier shares, and every random draw
// flows from the server's seeded rng or the trace's seeded streams. The
// engine trains on its server's executor and reports to its server's
// observer. See docs/SCHED.md for the event model and the policy
// semantics.
package sched

import (
	"fmt"
	"math"

	"adaptivefl/internal/core"
)

// Policy names an aggregation policy.
type Policy string

// The aggregation policies.
const (
	Sync      Policy = "sync"
	Deadline  Policy = "deadline"
	SemiAsync Policy = "semiasync"
	// DeadlineReuse closes rounds exactly like Deadline but banks late
	// uploads instead of discarding them: a straggler's result is merged
	// into the next aggregation under the semiasync staleness discount
	// 1/(1+s)^α (FedAsync-style reuse), ledgered as LateReused rather
	// than as communication waste.
	DeadlineReuse Policy = "deadline-reuse"
)

// ParsePolicy resolves a policy name.
func ParsePolicy(name string) (Policy, error) {
	switch Policy(name) {
	case Sync, Deadline, DeadlineReuse, SemiAsync:
		return Policy(name), nil
	}
	return "", fmt.Errorf("sched: unknown policy %q (sync|deadline|deadline-reuse|semiasync)", name)
}

// CostModel prices the three phases of one dispatch in virtual seconds.
// internal/testbed's Sim implements it from the Table 5 device specs,
// charging real encoded wire bytes when the dispatch carries them.
type CostModel interface {
	DispatchTimes(class core.DeviceClass, d core.Dispatch, samples, epochs int) (down, train, up float64)
}

// Config tunes the engine.
type Config struct {
	Policy Policy
	// K is the dispatch width: clients per round (sync, deadline) or the
	// in-flight target (semiasync).
	K int
	// Extra is the deadline policies' over-selection Δ: K+Extra clients
	// are dispatched, the round closes once K respond. Default
	// max(1, K/2).
	Extra int
	// Deadline is the deadline policy's optional absolute per-round cap in
	// virtual seconds; 0 closes purely on the K-th response. If nothing
	// has arrived by the cap, the round stays open until the first
	// response so progress is guaranteed.
	Deadline float64
	// Buffer is the semiasync aggregation size B. Default max(1, K/2).
	Buffer int
	// StalenessExp is the staleness-discount exponent α in
	// weight·1/(1+s)^α, applied to semiasync merges and to deadline-reuse
	// banked uploads. Zero (the unset value) means the 0.5 default
	// (FedBuff's square-root discount); a negative value disables the
	// discount entirely (α = 0, every stale update at full weight), which
	// a staleness ablation needs to be able to express.
	StalenessExp float64
	// Epochs is the local-epoch count the cost model charges training at.
	Epochs int
}

func (c *Config) validate() error {
	if _, err := ParsePolicy(string(c.Policy)); err != nil {
		return err
	}
	if c.K < 1 {
		return fmt.Errorf("sched: K must be >= 1")
	}
	if c.Epochs < 1 {
		return fmt.Errorf("sched: Epochs must be >= 1")
	}
	if c.Extra <= 0 {
		c.Extra = c.K / 2
		if c.Extra < 1 {
			c.Extra = 1
		}
	}
	if c.Buffer <= 0 {
		c.Buffer = c.K / 2
		if c.Buffer < 1 {
			c.Buffer = 1
		}
	}
	switch {
	case c.StalenessExp == 0:
		c.StalenessExp = 0.5
	case c.StalenessExp < 0:
		c.StalenessExp = 0 // explicit no-discount
	}
	if c.Deadline < 0 {
		return fmt.Errorf("sched: negative deadline")
	}
	return nil
}

// Commit summarises one aggregation: its ledger round number, the virtual
// time it happened at, and how the dispatches it covered were finalised.
type Commit struct {
	Round  int
	Time   float64
	Merged int // updates aggregated into the global model (reused included)
	Failed int // capacity failures (no derivable member fit)
	Late   int // uploads discarded for missing the round close
	// LateReused counts uploads that missed their round close but were
	// banked and merged into this aggregation with a staleness discount
	// (deadline-reuse). They are included in Merged.
	LateReused int
	Dropped    int // clients that went offline mid-flight
	// Rejected counts uploads that arrived but were refused — undecodable
	// or non-finite payloads, or a non-positive sample weight. Clipped
	// counts merges whose update a robust policy norm-clipped first; they
	// are included in Merged.
	Rejected int
	Clipped  int
}

// StalenessDiscount is the weight multiplier 1/(1+s)^α applied to an
// update merged s aggregations after its dispatch (semiasync buffering,
// deadline-reuse banking). exp ≤ 0 or s ≤ 0 leave the weight untouched.
func StalenessDiscount(stale int, exp float64) float64 {
	if stale <= 0 {
		return 1
	}
	return 1 / math.Pow(1+float64(stale), exp)
}
