// Package analyze turns a JSONL span trace into answers: per-commit
// critical paths, waste and byte breakdowns, phase/staleness histograms,
// hierarchy backhaul stats, and — via Audit — a replay that cross-checks
// the trace against the run's ledger summary. Everything streams: a
// million-flight trace passes through a fixed-size line buffer plus
// per-commit and per-client accumulators, never a whole-trace slice, and
// every report is a deterministic function of the trace bytes (same-seed
// runs produce byte-identical reports).
package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"adaptivefl/internal/core"
)

// LedgerSummary is the run-side half of the audit: the totals a run's own
// ledger accumulated, serialized by the cmds (-ledger-out) and replayed
// against by `fltrace audit`. Every total here has an independent
// counterpart derivable from the span stream alone, so the two agreeing
// means the trace is complete and the ledger conserved.
type LedgerSummary struct {
	// Policy is the scheduling policy label ("sync", "deadline-reuse",
	// ...; informational).
	Policy string `json:"policy,omitempty"`

	// Commits is the number of ledger entries (aggregations) pushed.
	Commits int `json:"commits"`
	// Dispatches counts every ledgered dispatch across all commits.
	Dispatches int `json:"dispatches"`
	// Outcome census over the ledgered dispatches. Merged counts fresh
	// merges only (late-reused ones are under LateReused); a banked
	// capacity failure counts under Failed.
	Merged       int `json:"merged"`
	Late         int `json:"late"`
	LateReused   int `json:"late_reused"`
	Dropped      int `json:"dropped"`
	Failed       int `json:"failed"`
	TrainSkipped int `json:"train_skipped"`
	// Rejected counts uploads refused at record time (undecodable or
	// non-finite payloads, non-positive sample weights); Clipped counts
	// fresh merges a robust policy norm-clipped (a subset of the merges,
	// censused separately under Merged's "clipped" span label).
	Rejected int `json:"rejected,omitempty"`
	Clipped  int `json:"clipped,omitempty"`

	// Downlink serving-path census (core.RoundStats semantics: all zero
	// when the run had no artifact store; every dispatch then paid its own
	// encode). DownEncodedOnce is the number of dispatches that actually
	// ran a codec encode — flat in cohort size under the encode-once store.
	DownEncodedOnce int `json:"down_encoded_once,omitempty"`
	DownReserved    int `json:"down_reserved,omitempty"`
	DownNotModified int `json:"down_not_modified,omitempty"`

	// Wire and parameter totals (core.RoundStats semantics: failed and
	// dropped dispatches return nothing).
	SentBytes      int64 `json:"sent_bytes"`
	ReturnedBytes  int64 `json:"returned_bytes"`
	SentParams     int64 `json:"sent_params"`
	ReturnedParams int64 `json:"returned_params"`

	// Engine staleness accounting (sched.Engine.DiscountSum): present when
	// HasDiscounts, summed across edge engines in a hierarchy run.
	HasDiscounts bool    `json:"has_discounts,omitempty"`
	StalenessExp float64 `json:"staleness_exp,omitempty"`
	DiscountSum  float64 `json:"discount_sum,omitempty"`

	// Global-tier accounting (hierarchy runs only).
	GlobalCommits      int     `json:"global_commits,omitempty"`
	GlobalStalenessExp float64 `json:"global_staleness_exp,omitempty"`
	GlobalDiscountSum  float64 `json:"global_discount_sum,omitempty"`

	// Lazy-population LRU accounting: present when HasLRU. LRUMade is the
	// total clients ever materialised, LRULive the resident count at the
	// end of the run.
	HasLRU  bool  `json:"has_lru,omitempty"`
	LRULive int64 `json:"lru_live,omitempty"`
	LRUMade int64 `json:"lru_made,omitempty"`
}

// SummarizeStats adds up a run's ledger entries into the summary's
// dispatch and byte totals: each entry's per-round counts (core.RoundStats
// already censused its dispatches by Dispatch.Label). A hierarchy run
// passes its edges' ledgers joined into one slice. Engine, hierarchy and
// LRU fields are the caller's to fill — they live outside the ledger.
func SummarizeStats(stats []core.RoundStats) LedgerSummary {
	var s LedgerSummary
	s.Commits = len(stats)
	for _, st := range stats {
		s.Dispatches += len(st.Dispatches)
		s.Merged += st.Merged
		s.Late += st.Late
		s.LateReused += st.LateReused
		s.Dropped += st.Dropped
		s.Failed += st.Failed
		s.Rejected += st.Rejected
		s.Clipped += st.Clipped
		s.TrainSkipped += st.TrainSkipped
		s.SentBytes += st.SentBytes
		s.ReturnedBytes += st.ReturnedBytes
		s.SentParams += st.SentParams
		s.ReturnedParams += st.ReturnedParams
		s.DownEncodedOnce += st.DownEncodedOnce
		s.DownReserved += st.DownReserved
		s.DownNotModified += st.DownNotModified
	}
	return s
}

// WriteFile serializes the summary as indented JSON.
func (s *LedgerSummary) WriteFile(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadLedger parses a summary written by WriteFile (or any JSON object
// with the same fields).
func ReadLedger(r io.Reader) (*LedgerSummary, error) {
	var s LedgerSummary
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("analyze: parse ledger summary: %w", err)
	}
	return &s, nil
}

// ReadLedgerFile opens and parses a ledger summary file.
func ReadLedgerFile(path string) (*LedgerSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLedger(f)
}
