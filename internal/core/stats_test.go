package core

import (
	"testing"

	"adaptivefl/internal/prune"
)

// sub builds a pool member stand-in with just the fields the ledger reads.
func sub(size int64) prune.Submodel {
	return prune.Submodel{Level: prune.LevelL, Sub: 1, Size: size}
}

// TestWireTotalsEmpty pins the aggregate helpers' degenerate cases: nil
// and empty ledgers, and ledgers with rounds but no codec traffic, all
// report zero without dividing by zero.
func TestWireTotalsEmpty(t *testing.T) {
	for _, stats := range [][]RoundStats{nil, {}} {
		if sent, back := TotalWireBytes(stats); sent != 0 || back != 0 {
			t.Fatalf("TotalWireBytes(%v) = %d, %d; want 0, 0", stats, sent, back)
		}
		if w := CommWasteRate(stats); w != 0 {
			t.Fatalf("CommWasteRate(%v) = %v; want 0", stats, w)
		}
	}
	// Rounds recorded, but every dispatch failed: SentParams stays 0 only
	// if nothing was sent — with sent params and nothing returned the
	// waste is total, not NaN.
	var st RoundStats
	st.Add(Dispatch{Client: 1, Sent: sub(100), Failed: true})
	if w := CommWasteRate([]RoundStats{st}); w != 1 {
		t.Fatalf("all-failed waste = %v; want 1", w)
	}
	// No codec in play: byte totals are zero even with parameter traffic.
	var ok RoundStats
	ok.Add(Dispatch{Client: 1, Sent: sub(100), Got: sub(40)})
	if sent, back := TotalWireBytes([]RoundStats{ok}); sent != 0 || back != 0 {
		t.Fatalf("codec-less TotalWireBytes = %d, %d; want 0, 0", sent, back)
	}
	if w := CommWasteRate([]RoundStats{ok}); w != 0.6 {
		t.Fatalf("waste = %v; want 0.6", w)
	}
}

// TestRoundStatsAdd pins the per-dispatch folding rules: which outcomes
// count returned parameters and bytes, and how the skip/reuse counters
// move.
func TestRoundStatsAdd(t *testing.T) {
	cases := []struct {
		name string
		d    Dispatch
		want RoundStats
	}{
		{
			name: "merged",
			d:    Dispatch{Sent: sub(100), Got: sub(40), SentBytes: 800, GotBytes: 320},
			want: RoundStats{SentParams: 100, ReturnedParams: 40, SentBytes: 800, ReturnedBytes: 320, Merged: 1},
		},
		{
			name: "failed wastes the full sent size",
			d:    Dispatch{Sent: sub(100), Got: sub(40), Failed: true, SentBytes: 800, GotBytes: 320},
			want: RoundStats{SentParams: 100, SentBytes: 800, Failed: 1},
		},
		{
			name: "dropped returns nothing",
			d:    Dispatch{Sent: sub(100), Got: sub(40), Dropped: true},
			want: RoundStats{SentParams: 100, Dropped: 1},
		},
		{
			name: "late discarded counts bytes but no params",
			d:    Dispatch{Sent: sub(100), Got: sub(40), Late: true, GotBytes: 320},
			want: RoundStats{SentParams: 100, ReturnedBytes: 320, Late: 1},
		},
		{
			name: "late reused counts params as useful work",
			d:    Dispatch{Sent: sub(100), Got: sub(40), Late: true, LateReused: true, GotBytes: 320},
			want: RoundStats{SentParams: 100, ReturnedParams: 40, ReturnedBytes: 320, LateReused: 1},
		},
		{
			name: "train skipped still moves its bytes",
			d:    Dispatch{Sent: sub(100), Got: sub(40), TrainSkipped: true, Dropped: true, SentBytes: 800},
			want: RoundStats{SentParams: 100, SentBytes: 800, TrainSkipped: 1, Dropped: 1},
		},
		{
			name: "rejected counts bytes but no params",
			d:    Dispatch{Sent: sub(100), Got: sub(40), Rejected: true, Late: true, GotBytes: 320},
			want: RoundStats{SentParams: 100, ReturnedBytes: 320, Rejected: 1},
		},
		{
			name: "clipped is a merge",
			d:    Dispatch{Sent: sub(100), Got: sub(40), Clipped: true, GotBytes: 320},
			want: RoundStats{SentParams: 100, ReturnedParams: 40, ReturnedBytes: 320, Clipped: 1, Merged: 1},
		},
		{
			name: "failed and dropped counts as dropped",
			d:    Dispatch{Sent: sub(100), Got: sub(100), Failed: true, Dropped: true, SentBytes: 800},
			want: RoundStats{SentParams: 100, SentBytes: 800, Dropped: 1},
		},
	}
	for _, tc := range cases {
		var st RoundStats
		st.Add(tc.d)
		if len(st.Dispatches) != 1 {
			t.Fatalf("%s: dispatch not appended", tc.name)
		}
		if !statsEqual(st, tc.want) {
			t.Fatalf("%s:\ngot  %+v\nwant %+v", tc.name, st, tc.want)
		}
	}

	// Counters accumulate across dispatches of one round.
	var st RoundStats
	st.Add(Dispatch{Sent: sub(10), Got: sub(5), Late: true, LateReused: true})
	st.Add(Dispatch{Sent: sub(10), Got: sub(5), Late: true, LateReused: true})
	st.Add(Dispatch{Sent: sub(10), Got: sub(5), TrainSkipped: true, Dropped: true})
	if st.LateReused != 2 || st.TrainSkipped != 1 || st.Dropped != 1 {
		t.Fatalf("counters: LateReused=%d TrainSkipped=%d Dropped=%d; want 2, 1, 1", st.LateReused, st.TrainSkipped, st.Dropped)
	}
	if st.SentParams != 30 || st.ReturnedParams != 10 {
		t.Fatalf("params: sent=%d returned=%d; want 30, 10", st.SentParams, st.ReturnedParams)
	}
}

// statsEqual compares the scalar ledger fields (Dispatches is aliased by
// the caller before the comparison).
func statsEqual(a, b RoundStats) bool {
	return a.Round == b.Round &&
		a.SentParams == b.SentParams && a.ReturnedParams == b.ReturnedParams &&
		a.SentBytes == b.SentBytes && a.ReturnedBytes == b.ReturnedBytes &&
		a.TrainSkipped == b.TrainSkipped && a.LateReused == b.LateReused &&
		a.Rejected == b.Rejected && a.Clipped == b.Clipped &&
		a.Merged == b.Merged && a.Late == b.Late && a.Dropped == b.Dropped && a.Failed == b.Failed
}
