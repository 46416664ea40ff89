package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"adaptivefl/internal/core"
)

const mib = 1 << 20

// costBytesPerParam is what the Table 5 cost model (testbed.Sim) charges
// per parameter when no codec produced real bytes; wire_mib_per_flight
// uses the same convention so it is defined on every workload.
const costBytesPerParam = 4

// procSnap is one reading of the process-wide counters a window is the
// difference of.
type procSnap struct {
	wall    time.Time
	cpu     float64 // user+sys seconds (getrusage)
	alloc   uint64  // MemStats.TotalAlloc
	mallocs uint64
	gc      uint32
	gcPause float64
}

func rusage() (cpu float64, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Maxrss)
}

func snap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := rusage()
	return procSnap{wall: time.Now(), cpu: cpu, alloc: ms.TotalAlloc, mallocs: ms.Mallocs,
		gc: ms.NumGC, gcPause: float64(ms.PauseTotalNs) / 1e9}
}

// totals are a timed window's raw sums. An end-to-end invocation splits
// its window over several seeds, one child each, and pools the children's
// totals before it derives the metrics: what a single seed settles on —
// the width mix its RL tables learn, how many of its dispatches drop —
// then averages out instead of reading as the program's speed.
type totals struct {
	Commits int `json:"commits"`
	// Nominal is the commit count the window was sized for: Commits, except
	// on popsim, whose virtual-time horizon holds as many as the seed lets it.
	Nominal int `json:"nominal"`
	// Flights are the dispatches attempted, skipped and dropped ones included.
	Flights int `json:"flights"`
	// Trainings are the flights whose local training ran: all but those that
	// failed on capacity or were lazily skipped (sealed dropouts).
	Trainings int     `json:"trainings"`
	Wall      float64 `json:"wall_s"` // the window's wall-clock, eval included
	CPU       float64 `json:"cpu_s"`  // getrusage user+sys
	AllocMiB  float64 `json:"alloc_mib"`
	Mallocs   float64 `json:"mallocs"`
	Samples   int64   `json:"samples"` // local-training samples of executed flights x epochs
	WireMiB   float64 `json:"wire_mib"`
	// Times are the commits' wall-clock, eval excluded.
	Times []float64 `json:"times"`
}

func newTotals(a, b procSnap, times []float64, l ledger) totals {
	return totals{Commits: len(times), Nominal: len(times), Flights: l.flights, Trainings: l.trainings, Wall: b.wall.Sub(a.wall).Seconds(), CPU: b.cpu - a.cpu,
		AllocMiB: float64(b.alloc-a.alloc) / mib, Mallocs: float64(b.mallocs - a.mallocs),
		Samples: l.samples, WireMiB: l.wireMiB(), Times: times}
}

func (t *totals) add(o totals) {
	t.Commits += o.Commits
	t.Nominal += o.Nominal
	t.Flights += o.Flights
	t.Trainings += o.Trainings
	t.Wall += o.Wall
	t.CPU += o.CPU
	t.AllocMiB += o.AllocMiB
	t.Mallocs += o.Mallocs
	t.Samples += o.Samples
	t.WireMiB += o.WireMiB
	t.Times = append(t.Times, o.Times...)
}

// metrics derives the window's end-to-end metrics (all but setup_s).
func (t totals) metrics(m metrics) {
	n := float64(t.Commits)
	// How many commits popsim's horizon holds is the seed's doing, not the
	// program's: run_s is the wall-clock of the nominal window.
	m["run_s"] = t.Wall * float64(t.Nominal) / n
	m["commit_s_p50"] = quantile(t.Times, 0.50)
	m["commit_s_p75"] = quantile(t.Times, 0.75)
	m["samples_per_s"] = float64(t.Samples) / sum(t.Times)
	// Costs are read per unit of the work that causes them, not per commit:
	// a semiasync commit takes as many flights as its seed's drops make it
	// (fednet 8-13, popsim 40-65, nine in ten of them skipped dropouts). CPU
	// and bytes allocated follow the trainings that ran; objects allocated
	// and bytes moved follow the dispatches.
	m["cpu_s_per_training"] = t.CPU / float64(t.Trainings)
	m["alloc_mib_per_training"] = t.AllocMiB / float64(t.Trainings)
	m["allocs_per_flight"] = t.Mallocs / float64(t.Flights)
	m["wire_mib_per_flight"] = t.WireMiB / float64(t.Flights)
}

func peakRSSMiB() float64 {
	_, rss := rusage()
	return float64(rss) / 1024
}

// quantile reads the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ledger is a window of the round ledger folded into the counts and
// totals the metrics read.
type ledger struct {
	commits, flights, trainings   int
	merged, failed, dropped, late int
	lateReused, skipped           int
	notModified, reserved         int   // downlinks revalidated / re-served from the artifact store
	samples                       int64 // local-training samples of executed flights × epochs
	sentParams, backParams        int64
	sentBytes, backBytes          int64
	trained                       map[string]int // Got member name → executed flights (the dispatch mix)
	sentMix                       map[string]int // Sent member name → dispatches
}

// foldLedger summarises ledger entries. samplesOf maps a client id to its
// shard size; a flight trained unless it failed on capacity or was lazily
// skipped (sealed dropout).
func foldLedger(stats []core.RoundStats, samplesOf func(int) int, epochs int) ledger {
	l := ledger{commits: len(stats), trained: map[string]int{}, sentMix: map[string]int{}}
	for _, st := range stats {
		l.sentParams += st.SentParams
		l.backParams += st.ReturnedParams
		l.sentBytes += st.SentBytes
		l.backBytes += st.ReturnedBytes
		l.notModified += st.DownNotModified
		l.reserved += st.DownReserved
		for _, d := range st.Dispatches {
			l.flights++
			l.sentMix[d.Sent.Name()]++
			switch {
			case d.Dropped:
				l.dropped++
			case d.Failed:
				l.failed++
			case d.Rejected: // refused at the door: neither merged nor late
			case d.LateReused:
				l.lateReused++
			case d.Late:
				l.late++
			default:
				l.merged++
			}
			if d.TrainSkipped {
				l.skipped++
			}
			if !d.Failed && !d.TrainSkipped {
				l.trainings++
				l.samples += int64(samplesOf(d.Client) * epochs)
				if !d.Dropped {
					l.trained[d.Got.Name()]++
				}
			}
		}
	}
	return l
}

// wasteRate is core.CommWasteRate over the window.
func (l ledger) wasteRate() float64 {
	if l.sentParams == 0 {
		return 0
	}
	return 1 - float64(l.backParams)/float64(l.sentParams)
}

// wireMiB is the bytes the window moved: real encoded payloads when a
// codec produced them, the cost model's per-parameter charge otherwise.
func (l ledger) wireMiB() float64 {
	if b := l.sentBytes + l.backBytes; b > 0 {
		return float64(b) / mib
	}
	return float64(l.sentParams+l.backParams) * costBytesPerParam / mib
}
