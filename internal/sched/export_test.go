package sched

import (
	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/prune"
)

// Walk is one priced flight walk: its event time, its trace segments and
// its fate.
type Walk struct {
	Eta, DownT, TrainT float64
	Drops              bool
}

// PriceAt prices dispatch d launched at t0, upload leg included, the way
// resolve re-prices a pending flight.
func (e *Engine) PriceAt(d core.Dispatch, t0 float64) Walk {
	fl := &flight{d: d}
	e.price(fl, t0, true)
	return Walk{Eta: fl.eta, DownT: fl.downT, TrainT: fl.trainT, Drops: fl.drops}
}

// LaunchBoundAt is launchBound for a flight of sent to client, launched at
// t0 with a promised downlink of sentBytes.
func (e *Engine) LaunchBoundAt(client int, sent prune.Submodel, sentBytes int64, t0 float64) float64 {
	clock := e.clock
	defer func() { e.clock = clock }()
	e.clock = t0
	return e.launchBound(&flight{d: core.Dispatch{Client: client, Sent: sent}}, sentBytes)
}

// CommitLedger is commitRecorded for a hand-built ledger entry: one
// aggregation of updates, ledgered as stats under the next round number.
func (e *Engine) CommitLedger(stats core.RoundStats, updates []agg.Update) (Commit, error) {
	return e.commitRecorded(e.srv.NextRound(), stats, updates)
}
