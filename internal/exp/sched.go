package exp

import (
	"fmt"
	"io"

	"adaptivefl/internal/baselines"
	"adaptivefl/internal/models"
)

// SchedPolicies lists the aggregation policies TableSched compares.
var SchedPolicies = []string{"sync", "deadline", "deadline-reuse", "semiasync"}

// TableSched compares the scheduling policies on the simulated Table 5
// platform (17 devices, Widar-like data, MobileNetV2): each policy runs
// AdaptiveFL through the event-driven engine under the same availability
// trace and seed, and the table reports accuracy against simulated
// wall-clock seconds — the axis the straggler problem actually lives on.
// An empty trace defaults to the straggler spec (weak devices
// intermittently 10× slower), the scenario the async policies exist for.
// The footer reports each policy's time to reach the sync policy's final
// accuracy.
func TableSched(w io.Writer, sc Scale) error {
	s := sc
	s.Clients = 17
	s.K = 10
	if s.Parallelism > s.K {
		s.Parallelism = s.K
	}
	if s.Trace == "" {
		s.Trace = "straggler"
	}
	props := [3]float64{4, 10, 3} // Table 5: 4 Pi, 10 Nano, 3 Xavier
	fmt.Fprintf(w, "Sched — policies on the Table 5 platform (widar/mobilenetv2, trace=%s)\n", s.Trace)
	fmt.Fprintln(w, "policy          round  sim-time(s)  full-acc(%)")

	type point struct {
		time, acc float64
	}
	finals := map[string]point{}
	curves := map[string][]point{}
	reusedBy := map[string]int{}
	for _, policy := range SchedPolicies {
		run := s
		run.Sched = policy
		fed, err := BuildFederation(models.MobileNetV2, "widar", Natural, props, run)
		if err != nil {
			return err
		}
		r, err := NewRunner("AdaptiveFL", fed, run)
		if err != nil {
			return err
		}
		sa, ok := baselines.AdaptiveOf(r)
		if !ok {
			return fmt.Errorf("exp: %s runner is not AdaptiveFL", policy)
		}
		for round := 1; round <= run.Rounds; round++ {
			if err := r.Round(); err != nil {
				return fmt.Errorf("%s round %d: %w", policy, round, err)
			}
			if round%run.EvalEvery == 0 || round == run.Rounds {
				acc, err := r.Evaluate(fed.Test, 64)
				if err != nil {
					return err
				}
				p := point{time: sa.SimTime(), acc: acc["full"]}
				curves[policy] = append(curves[policy], p)
				finals[policy] = p
				fmt.Fprintf(w, "%-14s %6d  %11.1f  %10.2f\n", policy, round, p.time, p.acc*100)
			}
		}
		for _, c := range sa.Eng.Commits() {
			reusedBy[policy] += c.LateReused
		}
	}

	// Time-to-target: how long each policy needs to match the sync
	// policy's final accuracy at the same aggregation budget.
	target := finals["sync"]
	fmt.Fprintf(w, "\ntime to reach sync's final accuracy (%.2f%%):\n", target.acc*100)
	for _, policy := range SchedPolicies {
		reached := -1.0
		for _, p := range curves[policy] {
			if p.acc >= target.acc {
				reached = p.time
				break
			}
		}
		reuseNote := ""
		if reusedBy[policy] > 0 {
			reuseNote = fmt.Sprintf("  [%d late uploads reused]", reusedBy[policy])
		}
		if reached < 0 {
			fmt.Fprintf(w, "%-14s  not reached in %d rounds (final %.2f%%)%s\n",
				policy, s.Rounds, finals[policy].acc*100, reuseNote)
			continue
		}
		fmt.Fprintf(w, "%-14s  %8.1fs  (%.2f× sync)%s\n", policy, reached, reached/target.time, reuseNote)
	}
	return nil
}
