package sched_test

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adaptivefl/internal/core"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/wire"
)

var errEncode = errors.New("encode refused")

// downFailCodec is q8 whose failAt-th downlink encode (no reference
// state) fails.
type downFailCodec struct {
	wire.Q8
	downs  *atomic.Int32
	failAt int32
}

func (c downFailCodec) Encode(st, ref nn.State) ([]byte, error) {
	if ref == nil && c.downs.Add(1) == c.failAt {
		return nil, errEncode
	}
	return c.Q8.Encode(st, ref)
}

// slowFailTrainer echoes every dispatch but refuses flight fail; the
// flights after it train for a while, and active counts trainings under
// way.
type slowFailTrainer struct {
	fail   int64
	active *atomic.Int32
}

func (s slowFailTrainer) Train(req core.TrainRequest) (core.TrainResult, error) {
	if req.Flight == s.fail {
		return core.TrainResult{}, errDispatch
	}
	s.active.Add(1)
	defer s.active.Add(-1)
	if req.Flight > s.fail {
		time.Sleep(100 * time.Millisecond)
	}
	return core.TrainResult{State: req.State, Samples: 1, Got: req.Sent}, nil
}

// TestLaunchErrorLeavesNoFlightOpen fails the first burst of a step, once
// at planning (a semiasync refill's second downlink encode) and once at a
// join (a remote trainer refusing flight 2 while flights 3 and 4 still
// train). Step must return the error with every training of the burst
// finished, no flight of the burst left open and no goroutine behind.
func TestLaunchErrorLeavesNoFlightOpen(t *testing.T) {
	var active atomic.Int32
	cases := []struct {
		name   string
		want   error
		policy sched.Policy
		mutate func(*core.Config)
	}{
		{"plan", errEncode, sched.SemiAsync, func(c *core.Config) {
			c.Codec = downFailCodec{downs: new(atomic.Int32), failAt: 2}
		}},
		{"join", errDispatch, sched.Sync, func(c *core.Config) {
			c.Trainer = slowFailTrainer{fail: 2, active: &active}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			srv := buildServerCfg(t, 6, 4, 90, tc.mutate)
			eng, err := sched.New(srv, testSim(t), nil, sched.Config{Policy: tc.policy, K: 4, Buffer: 2, Epochs: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Step(); !errors.Is(err, tc.want) {
				t.Fatalf("Step returned %v, want %v", err, tc.want)
			}
			if n := active.Load(); n != 0 {
				t.Fatalf("%d trainings of the failed burst still running after Step returned", n)
			}
			if n := srv.InFlight(); n != 0 {
				t.Fatalf("%d flights of the failed burst left open", n)
			}
			settles(t, before)
		})
	}
}
