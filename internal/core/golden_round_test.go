package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/wire"
)

// roundCensus renders a ledger entry compactly: the round totals, then
// one client:sent>got token per dispatch with its outcome flags.
func roundCensus(st RoundStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "r%d sentP=%d retP=%d sentB=%d retB=%d rej=%d clip=%d down=%d/%d/%d",
		st.Round, st.SentParams, st.ReturnedParams, st.SentBytes, st.ReturnedBytes,
		st.Rejected, st.Clipped, st.DownEncodedOnce, st.DownReserved, st.DownNotModified)
	for _, d := range st.Dispatches {
		fmt.Fprintf(&b, " %d:%s>%s", d.Client, d.Sent.Name(), d.Got.Name())
		if d.Failed {
			b.WriteString("!f")
		}
		if d.Rejected {
			b.WriteString("!r")
		}
	}
	return b.String()
}

// TestGoldenRoundHashes pins two synchronous Server.Round() rounds of a
// small federation under an adversary mix that includes stale replay,
// corruption and sign flips, with no codec and with q8: the final global
// weights hash and the ledger census of each round. The constants were
// recorded before the in-process dispatch path was unified with the
// planned one, and must never be edited. The parity tests compare two
// paths at one commit, so they miss both paths moving together; this pin
// does not. amd64 only, as TestGoldenTrainingHashes.
func TestGoldenRoundHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded for amd64's unfused multiply-add")
	}
	cells := []struct {
		name   string
		codec  wire.Codec
		hash   uint64
		census [2]string
	}{
		{"raw", nil, 0xec25d80f2b2add28, [2]string{
			"r1 sentP=75627 retP=42969 sentB=0 retB=0 rej=1 clip=0 down=0/0/0 3:S3>S3 4:M1>S1 0:S1>S1!r 1:S2>S2",
			"r2 sentP=110511 retP=43763 sentB=0 retB=0 rej=1 clip=0 down=0/0/0 3:L1>S2 5:M3>M3!r 1:M3>M3 4:S3>S3",
		}},
		{"q8", wire.Q8{}, 0xe895dacb017ea6ba, [2]string{
			"r1 sentP=75627 retP=42969 sentB=83967 retB=75438 rej=1 clip=0 down=4/0/0 3:S3>S3 4:M1>S1 0:S1>S1!r 1:S2>S2",
			"r2 sentP=110511 retP=43763 sentB=116291 retB=88658 rej=1 clip=0 down=3/1/0 3:L1>S2 5:M3>M3!r 1:M3>M3 4:S3>S3",
		}},
	}
	for _, c := range cells {
		srv := advServer(t, 54, "mix:frac=0.7,signflip=1,stale-replay=1,corrupt=1", "", c.codec)
		for r := 0; r < 2; r++ {
			if err := srv.Round(); err != nil {
				t.Fatalf("%s round %d: %v", c.name, r+1, err)
			}
		}
		if got := nn.HashState(srv.Global()); got != c.hash {
			t.Errorf("%s: weights hash %016x, want %016x", c.name, got, c.hash)
		}
		for r, st := range srv.Stats() {
			if got := roundCensus(st); got != c.census[r] {
				t.Errorf("%s round %d census:\n got %s\nwant %s", c.name, r+1, got, c.census[r])
			}
		}
	}
}
