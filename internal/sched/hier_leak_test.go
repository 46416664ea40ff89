package sched_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"adaptivefl/internal/core"
	"adaptivefl/internal/sched"
)

var errDispatch = errors.New("dispatch refused")

// echoTrainer hands every dispatch's state straight back, and refuses
// the dispatch with flight ID failFrom and every one after it.
type echoTrainer struct{ failFrom int64 }

func (e echoTrainer) Train(req core.TrainRequest) (core.TrainResult, error) {
	if req.Flight >= e.failFrom {
		return core.TrainResult{}, errDispatch
	}
	return core.TrainResult{State: req.State, Samples: 1, Got: req.Sent}, nil
}

// leakHierarchy builds three semiasync edges on the AlwaysOn trace; edge 1
// trains through trainer when it is non-nil.
func leakHierarchy(t *testing.T, trainer core.Trainer) *sched.Hierarchy {
	t.Helper()
	eds := make([]*sched.Edge, 3)
	for i := range eds {
		srv := buildServerCfg(t, 6, 2, 70+int64(i), func(c *core.Config) {
			if i == 1 {
				c.Trainer = trainer
			}
		})
		eng, err := sched.New(srv, testSim(t), nil, sched.Config{Policy: sched.SemiAsync, K: 2, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		eds[i] = &sched.Edge{Srv: srv, Eng: eng}
	}
	h, err := sched.NewHierarchy(eds, testSim(t), sched.HierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// settles waits for the goroutine count to fall back to before (in-flight
// trainings finish on their own) and fails the test if it does not.
func settles(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left, started with %d:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestHierarchyStepErrorLeavesNoGoroutines fails edge 1's third dispatch.
// Edge 1 is unplannable (a remote trainer) and promises no downlink size,
// so its flights are queued under their launch time and fail at the queue
// head while edge 2's step sits suspended at a later join: Step
// must return the wrapped error, run the suspended step out, and leave
// no goroutine behind.
func TestHierarchyStepErrorLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	h := leakHierarchy(t, echoTrainer{failFrom: 3})
	err := h.Run(50, nil)
	if !errors.Is(err, errDispatch) || !strings.Contains(err.Error(), "edge 1") {
		t.Fatalf("Run returned %v, want edge 1's wrapped %v", err, errDispatch)
	}
	settles(t, before)
}

// TestHierarchyRunStopLeavesNoSuspendedStep stops a Run from its
// callback: every step Step began has ended by the time it returns.
func TestHierarchyRunStopLeavesNoSuspendedStep(t *testing.T) {
	before := runtime.NumGoroutine()
	h := leakHierarchy(t, nil)
	calls := 0
	if err := h.Run(5, func(sched.GlobalCommit) bool { calls++; return false }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times, want 1", calls)
	}
	settles(t, before)
}
