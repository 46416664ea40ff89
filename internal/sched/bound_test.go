package sched_test

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivefl/internal/core"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/sched"
)

// TestLaunchBoundBelowEvent checks launchBound against every outcome a
// flight of an unplannable trainer can have, for clients of every device
// class launched at many times of a churny trace with speed changes: each
// member derivable from the sent one, a failed return, and drops in the
// download, training and upload phases. The bound must never exceed the
// priced event time. Each launch is then re-priced after the trace has
// retired everything behind the launch time and been extended far past
// it, as Step retires behind a pending flight's launch time, and must
// reproduce the launch walk bit for bit.
func TestLaunchBoundBelowEvent(t *testing.T) {
	srv := buildServerCfg(t, 9, 3, 41, nil)
	trace := &sched.RandomTrace{Seed: 23, MeanOn: 0.3, MeanOff: 0.05, SlowProb: 0.5, SlowFactor: 6}
	eng, err := sched.New(srv, testSim(t), trace, sched.Config{Policy: sched.SemiAsync, K: 1, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := srv.Pool()
	classes := map[core.DeviceClass]bool{}
	for c := 0; c < srv.NumClients(); c++ {
		classes[srv.ClientAt(c).Device.Class] = true
	}
	if len(classes) != 3 {
		t.Fatalf("population covers %d device classes, want 3", len(classes))
	}

	type launch struct {
		d    core.Dispatch
		walk sched.Walk
	}
	var trained, failed, dropDown, dropTrain, dropUp, retired int
	for step := 0; step < 400; step++ {
		t0 := float64(step) * 0.01
		var launches []launch
		for c := 0; c < srv.NumClients(); c++ {
			if up, _, _ := trace.Window(c, t0); !up {
				continue // not eligible: no flight launches here
			}
			for _, sent := range pool.Members {
				sentBytes := sent.Size * int64(1+step%3)
				var outcomes []core.Dispatch
				for _, m := range pool.Members {
					if m.DerivableFrom(sent) {
						outcomes = append(outcomes, core.Dispatch{Client: c, Sent: sent, Got: m,
							SentBytes: sentBytes + int64(step%2), GotBytes: m.Size * int64(step%4)})
					}
				}
				outcomes = append(outcomes, core.Dispatch{Client: c, Sent: sent, Got: sent,
					Failed: true, SentBytes: sentBytes})
				for _, promise := range []int64{sentBytes, 0} {
					bound := eng.LaunchBoundAt(c, sent, promise, t0)
					for _, d := range outcomes {
						w := eng.PriceAt(d, t0)
						if bound > w.Eta {
							t.Fatalf("client %d (%v) sent %s at t=%.3f: bound %.9f above the %+v outcome's event %.9f",
								c, srv.ClientAt(c).Device.Class, sent.Name(), t0, bound, d, w.Eta)
						}
						if promise == 0 {
							continue
						}
						launches = append(launches, launch{d, w})
						switch {
						case w.Drops && w.DownT == 0:
							dropDown++
						case w.Drops && w.TrainT == 0:
							dropTrain++
						case w.Drops:
							dropUp++
						case d.Failed:
							failed++
						default:
							trained++
						}
					}
				}
			}
		}
		before := trace.SegmentCount()
		trace.Retire(t0)
		if trace.SegmentCount() < before {
			retired++
		}
		for c := 0; c < srv.NumClients(); c++ {
			trace.Window(c, t0+50)
		}
		for _, l := range launches {
			w := eng.PriceAt(l.d, t0)
			if math.Float64bits(w.Eta) != math.Float64bits(l.walk.Eta) ||
				math.Float64bits(w.DownT) != math.Float64bits(l.walk.DownT) ||
				math.Float64bits(w.TrainT) != math.Float64bits(l.walk.TrainT) || w.Drops != l.walk.Drops {
				t.Fatalf("client %d at t=%.3f: re-priced walk %+v after Retire, launch walk %+v", l.d.Client, t0, w, l.walk)
			}
		}
	}
	t.Logf("outcomes: %d trained, %d failed, drops in download %d, training %d, upload %d; %d retirements",
		trained, failed, dropDown, dropTrain, dropUp, retired)
	if trained == 0 || failed == 0 || dropDown == 0 || dropTrain == 0 || dropUp == 0 || retired == 0 {
		t.Fatal("an outcome, a drop phase or a retirement was never exercised")
	}
}

// fixedCost prices every dispatch the same, whatever its members and
// bytes.
type fixedCost struct{ down, train, up float64 }

func (f fixedCost) DispatchTimes(core.DeviceClass, core.Dispatch, int, int) (float64, float64, float64) {
	return f.down, f.train, f.up
}

// pairTrainer echoes every dispatch and promises a one-byte downlink.
// Past the initial burst (flight IDs above burst), the first Train call
// waits for a second one to be running at the same time, up to a timeout,
// and overlapped records whether one came.
type pairTrainer struct {
	burst      int64
	mu         sync.Mutex
	active     int
	pair       chan struct{}
	overlapped atomic.Bool
}

func (p *pairTrainer) DownlinkBytes(core.TrainRequest, func() (nn.State, error)) (int64, error) {
	return 1, nil
}

func (p *pairTrainer) Train(req core.TrainRequest) (core.TrainResult, error) {
	if req.Flight > p.burst {
		p.mu.Lock()
		p.active++
		if p.active == 2 && !p.overlapped.Load() {
			p.overlapped.Store(true)
			close(p.pair)
		}
		p.mu.Unlock()
		select {
		case <-p.pair:
		case <-time.After(5 * time.Second):
		}
		p.mu.Lock()
		p.active--
		p.mu.Unlock()
	}
	return core.TrainResult{State: req.State, Samples: 1, Got: req.Sent, SentBytes: 1}, nil
}

// TestSemiAsyncRemoteFlightsOverlap: the flights of an unplannable
// trainer are queued under their launch bound instead of joined at
// launch, so a semiasync refill's flight trains while the engine goes on
// to the next arrival. After the initial burst, two Train calls must be
// running at once on a 2-wide executor.
func TestSemiAsyncRemoteFlightsOverlap(t *testing.T) {
	const k = 4
	tr := &pairTrainer{burst: k, pair: make(chan struct{})}
	srv := buildServerCfg(t, 8, 2, 47, func(c *core.Config) {
		c.Trainer = tr
		c.Parallelism = 2
	})
	eng, err := sched.New(srv, fixedCost{down: 1, train: 2, up: 1}, nil,
		sched.Config{Policy: sched.SemiAsync, K: k, Buffer: 2, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(3, nil); err != nil {
		t.Fatal(err)
	}
	eng.Log()
	if !tr.overlapped.Load() {
		t.Fatal("no two refill trainings ran at once: remote flights were joined one at a time")
	}
}

// sizedFailTrainer is slowFailTrainer with a one-byte downlink promise,
// so its flights are queued under a launch bound and a refusal surfaces
// only when the flight reaches the queue head.
type sizedFailTrainer struct{ slowFailTrainer }

func (sizedFailTrainer) DownlinkBytes(core.TrainRequest, func() (nn.State, error)) (int64, error) {
	return 1, nil
}

// TestResolveErrorLeavesNoFlightOpen fails a flight that is resolved
// only at the queue head while the flights after it still train: a
// semiasync refill flight (flight 5, past the initial burst of four), and
// the second flight of a sync barrier round (flight 6, in round 2 of
// four-wide rounds). The step must return the error with every training
// finished, no flight open, no log line unfilled and no goroutine behind.
func TestResolveErrorLeavesNoFlightOpen(t *testing.T) {
	t.Run("sync-barrier", func(t *testing.T) {
		var active atomic.Int32
		before := runtime.NumGoroutine()
		srv := buildServerCfg(t, 6, 4, 90, func(c *core.Config) {
			c.Trainer = slowFailTrainer{fail: 6, active: &active}
		})
		eng, err := sched.New(srv, testSim(t), nil, sched.Config{Policy: sched.Sync, K: 4, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		err = eng.Run(3, nil)
		if !errors.Is(err, errDispatch) {
			t.Fatalf("Run returned %v, want %v", err, errDispatch)
		}
		if n := len(eng.Commits()); n != 1 {
			t.Fatalf("%d rounds committed, want 1 before the failing one", n)
		}
		if n := active.Load(); n != 0 {
			t.Fatalf("%d trainings still running after the failed step returned", n)
		}
		if n := srv.InFlight(); n != 0 {
			t.Fatalf("%d flights left open", n)
		}
		for i, line := range eng.Log() {
			if line == "" {
				t.Fatalf("log line %d left unfilled", i)
			}
		}
		settles(t, before)
	})
	t.Run("semiasync-refill", func(t *testing.T) {
		var active atomic.Int32
		before := runtime.NumGoroutine()
		srv := buildServerCfg(t, 6, 4, 90, func(c *core.Config) {
			c.Trainer = sizedFailTrainer{slowFailTrainer{fail: 5, active: &active}}
		})
		eng, err := sched.New(srv, testSim(t), nil, sched.Config{Policy: sched.SemiAsync, K: 4, Buffer: 2, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		err = eng.Run(20, nil)
		if !errors.Is(err, errDispatch) {
			t.Fatalf("Run returned %v, want %v", err, errDispatch)
		}
		if n := active.Load(); n != 0 {
			t.Fatalf("%d trainings still running after the failed step returned", n)
		}
		if n := srv.InFlight(); n != 0 {
			t.Fatalf("%d flights left open", n)
		}
		for i, line := range eng.Log() {
			if line == "" {
				t.Fatalf("log line %d left unfilled", i)
			}
		}
		settles(t, before)
	})
}

// hiddenTrace forwards Window but hides Compactor, so the engine never
// retires its segments.
type hiddenTrace struct{ sched.Trace }

// echoSizedTrainer echoes every dispatch and promises a one-byte
// downlink, so its flights are queued under a launch bound.
type echoSizedTrainer struct{}

func (echoSizedTrainer) DownlinkBytes(core.TrainRequest, func() (nn.State, error)) (int64, error) {
	return 1, nil
}

func (echoSizedTrainer) Train(req core.TrainRequest) (core.TrainResult, error) {
	return core.TrainResult{State: req.State, Samples: 1, Got: req.Sent, SentBytes: 1}, nil
}

// TestRetireKeepsPendingLaunchSegments: a semiasync flight can stay
// pending across commits while its client's trace runs through many
// speed changes, and it is priced from its launch time when it resolves.
// Step must retire no trace segment that launch time still reads: the run
// logs exactly what it logs when nothing is ever retired.
func TestRetireKeepsPendingLaunchSegments(t *testing.T) {
	run := func(wrap bool) []string {
		srv := buildServerCfg(t, 8, 2, 53, func(c *core.Config) { c.Trainer = echoSizedTrainer{} })
		var tr sched.Trace = &sched.RandomTrace{Seed: 29, MeanOn: 0.02, SlowProb: 0.5, SlowFactor: 3}
		if wrap {
			tr = hiddenTrace{tr}
		}
		eng, err := sched.New(srv, fixedCost{down: 0.01, train: 2, up: 0.01}, tr,
			sched.Config{Policy: sched.SemiAsync, K: 4, Buffer: 1, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(12, nil); err != nil {
			t.Fatal(err)
		}
		return eng.Log()
	}
	retired, kept := run(false), run(true)
	if len(retired) != len(kept) {
		t.Fatalf("log lengths differ: %d with retirement, %d without", len(retired), len(kept))
	}
	for i := range kept {
		if retired[i] != kept[i] {
			t.Fatalf("log line %d: %q with retirement, %q without", i, retired[i], kept[i])
		}
	}
}
