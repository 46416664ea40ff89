package sched_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"adaptivefl/internal/core"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/sched"
)

// obsRun drives one engine run of the given policy and returns everything
// the determinism contract covers: the event log, the ledger, the RL
// tables and the final global weights. With trace non-nil, an observer
// with a metrics registry and a JSONL sink writing into trace is
// attached; with trace nil the run is unobserved (nil observer — the
// zero-cost path).
func obsRun(t *testing.T, policy sched.Policy, trace *bytes.Buffer) ([]string, []core.RoundStats, *core.Server) {
	t.Helper()
	var observer *obs.Observer
	var jw *obs.JSONLWriter
	if trace != nil {
		jw = obs.NewJSONLWriter(trace)
		observer = obs.NewObserver(obs.NewMetrics(), jw)
	}
	srv := buildServerCfg(t, 6, 3, 43, func(c *core.Config) {
		c.Observer = observer
	})
	rt := &sched.RandomTrace{Seed: 99, MeanOn: 40, MeanOff: 5, SlowProb: 0.5, SlowFactor: 10}
	eng, err := sched.New(srv, testSim(t), rt, sched.Config{
		Policy: policy, K: 3, Extra: 2, Buffer: 2, Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(2, nil); err != nil {
		t.Fatalf("%s: %v", policy, err)
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			t.Fatalf("%s: closing trace: %v", policy, err)
		}
	}
	return eng.Log(), srv.Stats(), srv
}

// TestObserverBitIdentity is the observability layer's hard requirement:
// attaching an observer (metrics registry + JSONL span sink) must not
// perturb the run in any way — the event log, the communication ledger,
// the RL tables and the global weights are bit-identical with
// observability on or off, for every policy, with the parallel executor
// live (the test matters most under -race). It also pins the trace
// itself: two observed same-seed runs produce byte-identical JSONL.
func TestObserverBitIdentity(t *testing.T) {
	policies := []sched.Policy{sched.Sync, sched.Deadline, sched.DeadlineReuse, sched.SemiAsync}
	if testing.Short() {
		// The two policies with the richest span emission paths (late-upload
		// banking and buffered async merging) keep the property pinned.
		policies = []sched.Policy{sched.DeadlineReuse, sched.SemiAsync}
	}
	for _, policy := range policies {
		logOff, statsOff, srvOff := obsRun(t, policy, nil)

		var traceA bytes.Buffer
		logOn, statsOn, srvOn := obsRun(t, policy, &traceA)

		if !reflect.DeepEqual(logOff, logOn) {
			t.Fatalf("%s: event log differs with observer attached:\noff: %s\non:  %s",
				policy, strings.Join(logOff, "\n     "), strings.Join(logOn, "\n     "))
		}
		if !reflect.DeepEqual(statsOff, statsOn) {
			t.Fatalf("%s: ledger differs with observer attached:\noff %+v\non  %+v",
				policy, statsOff, statsOn)
		}
		if tOff, tOn := srvOff.Tables(), srvOn.Tables(); tOff.Rows() == 0 || !reflect.DeepEqual(tOff, tOn) {
			t.Fatalf("%s: RL tables differ with observer attached, or hold no column", policy)
		}
		if !reflect.DeepEqual(srvOff.Global(), srvOn.Global()) {
			t.Fatalf("%s: global weights differ with observer attached", policy)
		}
		if traceA.Len() == 0 {
			t.Fatalf("%s: observed run emitted no spans", policy)
		}

		var traceB bytes.Buffer
		obsRun(t, policy, &traceB)
		if !bytes.Equal(traceA.Bytes(), traceB.Bytes()) {
			t.Fatalf("%s: JSONL traces of identical runs differ (%d vs %d bytes)",
				policy, traceA.Len(), traceB.Len())
		}
	}
}

// TestHierarchyObserverBitIdentity extends the bit-identity property to
// the two-tier topology: one observer shared by the global tier and both
// edge engines must leave the nested event logs and global weights
// untouched, and trace the same run to the same bytes.
func TestHierarchyObserverBitIdentity(t *testing.T) {
	run := func(trace *bytes.Buffer) ([]string, *sched.Hierarchy) {
		var observer *obs.Observer
		var jw *obs.JSONLWriter
		if trace != nil {
			jw = obs.NewJSONLWriter(trace)
			observer = obs.NewObserver(obs.NewMetrics(), jw)
		}
		eds := make([]*sched.Edge, 2)
		for i := range eds {
			srv := buildServerCfg(t, 6, 2, 50+int64(i), func(c *core.Config) {
				c.Observer = observer
			})
			eng, err := sched.New(srv, testSim(t), &sched.RandomTrace{Seed: 9, MeanOn: 40, MeanOff: 10}, sched.Config{
				Policy: sched.SemiAsync, K: 2, Epochs: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			eds[i] = &sched.Edge{Srv: srv, Eng: eng}
		}
		h, err := sched.NewHierarchy(eds, testSim(t), sched.HierConfig{Observer: observer})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Run(3, nil); err != nil {
			t.Fatal(err)
		}
		if jw != nil {
			if err := jw.Close(); err != nil {
				t.Fatalf("closing trace: %v", err)
			}
		}
		logs := append([]string{}, h.Log()...)
		for _, ed := range h.Edges() {
			logs = append(logs, ed.Eng.Log()...)
		}
		return logs, h
	}

	logsOff, hOff := run(nil)
	var traceA bytes.Buffer
	logsOn, hOn := run(&traceA)
	if !reflect.DeepEqual(logsOff, logsOn) {
		t.Fatal("hierarchy event logs differ with observer attached")
	}
	if !reflect.DeepEqual(hOff.Global(), hOn.Global()) {
		t.Fatal("hierarchy global weights differ with observer attached")
	}
	if traceA.Len() == 0 {
		t.Fatal("observed hierarchy run emitted no spans")
	}
	var traceB bytes.Buffer
	run(&traceB)
	if !bytes.Equal(traceA.Bytes(), traceB.Bytes()) {
		t.Fatal("JSONL traces of identical hierarchy runs differ")
	}
}
