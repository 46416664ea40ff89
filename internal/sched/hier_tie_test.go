package sched_test

import (
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/sched"
)

// stepCost prices every phase of every dispatch at the same fixed
// seconds, so virtual commit times are exact multiples of it.
type stepCost float64

func (c stepCost) DispatchTimes(core.DeviceClass, core.Dispatch, int, int) (down, train, up float64) {
	return float64(c), float64(c), float64(c)
}

// TestHierarchyEqualTimeArrivalsFoldInBeginOrder builds two sync edges
// whose rounds take 3 s and 6 s. Both commit at t=6 and arrive at t=7
// over a 1 s backhaul, but edge 1's step began at t=0 and edge 0's second
// step at t=3, so the global tier must fold edge 1's update first: equal
// arrival times resolve in the order the steps began, not by edge index.
func TestHierarchyEqualTimeArrivalsFoldInBeginOrder(t *testing.T) {
	eds := make([]*sched.Edge, 2)
	for i := range eds {
		srv := buildServer(t, 4, 2, 80+int64(i))
		eng, err := sched.New(srv, stepCost(1+i), nil, sched.Config{Policy: sched.Sync, K: 2, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		eds[i] = &sched.Edge{Srv: srv, Eng: eng}
	}
	h, err := sched.NewHierarchy(eds, stepCost(1), sched.HierConfig{GlobalBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run(3, nil); err != nil {
		t.Fatal(err)
	}
	var at7 []string
	for _, line := range h.Log() {
		if strings.HasPrefix(line, "7.000 global-arrive ") {
			at7 = append(at7, strings.Fields(line)[2])
		}
	}
	if want := []string{"edge=1", "edge=0"}; strings.Join(at7, " ") != strings.Join(want, " ") {
		t.Fatalf("arrivals at t=7 folded as %v, want %v (begin order)\nglobal log:\n  %s",
			at7, want, strings.Join(h.Log(), "\n  "))
	}
}
