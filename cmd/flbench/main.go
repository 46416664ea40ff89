// Command flbench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports, computed on
// the synthetic substrate at a configurable scale.
//
// Usage:
//
//	flbench -exp table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|sched|byzantine|all \
//	        -scale quick|small|paper [-dataset cifar10,...] [-arch vgg16,...] \
//	        [-sched sync|deadline|deadline-reuse|semiasync] \
//	        [-trace straggler|churn|always] [-codec q8] \
//	        [-agg trim:frac=0.45] [-adversary mix:frac=0.3,signflip=1,scale=1]
//
// With -pop a parametric population spec replaces the experiment tables:
// the fleet is generated lazily (core.ParsePopulation grammar) and driven
// through the event engine — or, with -edges N > 1, through the two-tier
// edge hierarchy — for -sim-seconds of virtual time:
//
//	flbench -pop 'mix:n=1000000,weak=0.6,churn=30' -sched semiasync -edges 8
//
// Performance is measured by bench/run.sh (docs/BENCH.md), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"adaptivefl/internal/core"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/models"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flbench:", err)
		os.Exit(1)
	}
}

// run parses args and runs the selected experiments, or the population
// simulation with -pop, writing results to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("flbench", flag.ExitOnError)
	var shared exp.Flags
	shared.Register(fs)
	var (
		expName   = fs.String("exp", "all", "experiment to run: table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|sched|byzantine|all")
		datasets  = fs.String("datasets", "cifar10,cifar100,femnist", "Table 2 datasets (comma separated)")
		archs     = fs.String("archs", "vgg16,resnet18", "Table 1 and Table 2 architectures (comma separated; table1 also takes mobilenetv2)")
		dists     = fs.String("dists", "iid,dir0.6,dir0.3", "Table 2 distributions (comma separated)")
		popSpec   = fs.String("pop", "", "parametric population spec (core.ParsePopulation grammar, e.g. 'mix:n=1000000,weak=0.6,churn=30'); runs a lazy-population simulation instead of the experiment tables")
		edges     = fs.Int("edges", 1, "with -pop: number of edge aggregators in the two-tier hierarchy (1 = flat)")
		simSecs   = fs.Float64("sim-seconds", 86400, "with -pop: virtual-time horizon of the simulation (default one simulated day)")
		timeScale = fs.Float64("time-scale", 0, "with -pop: multiply every priced duration by this factor (0 = auto-calibrate the reduced bench model to a realistic fleet round cadence)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError exits on a parse error

	if err := shared.Validate(); err != nil {
		return err
	}
	sc, err := shared.Scale()
	if err != nil {
		return err
	}
	obsv, obsDone, err := shared.Observability("flbench")
	if err != nil {
		return err
	}
	defer obsDone()
	sc.Observer = obsv
	sc.Sched, sc.Agg, sc.Adversary = shared.Sched, shared.Agg, shared.Adversary
	if *popSpec != "" {
		if shared.Codec != "" {
			return fmt.Errorf("-codec does not apply to -pop (a population run has no codec path)")
		}
		if shared.Trace != "" {
			return fmt.Errorf("-trace does not apply to -pop (churn comes from the population spec)")
		}
		return runPopSim(w, *popSpec, sc, *edges, *simSecs, *timeScale, shared.LedgerOut)
	}
	if shared.LedgerOut != "" {
		return fmt.Errorf("-ledger-out requires -pop")
	}
	// Unlike cmd/adaptivefl (which rejects specs the selected algorithm
	// would ignore), flbench runs mixed-algorithm experiments by design —
	// so say out loud which rows each spec actually touches.
	if shared.Sched != "" {
		fmt.Fprintf(os.Stderr, "flbench: -sched %s applies to AdaptiveFL variants only; baseline rows keep their synchronous loops\n", shared.Sched)
	}
	sc.Trace = shared.Trace
	if shared.Agg != "" {
		fmt.Fprintf(os.Stderr, "flbench: -agg %s applies to AdaptiveFL variants only; baseline rows keep their exact means\n", shared.Agg)
	}
	if shared.Adversary != "" {
		fmt.Fprintf(os.Stderr, "flbench: -adversary %s compromises clients on AdaptiveFL rows only\n", shared.Adversary)
	}
	if shared.Codec != "" {
		sc.Codec = shared.Codec
		fmt.Fprintf(os.Stderr, "flbench: -codec %s applies to AdaptiveFL variants only; baseline rows run the exact in-memory path\n", shared.Codec)
	}

	experiments := []struct {
		name string
		run  func() error
	}{
		{"table1", func() error { return exp.Table1(w, archList(*archs)) }},
		{"table2", func() error {
			return exp.Table2(w, table2Cells(*datasets, *archs, *dists), exp.Table2Algorithms, sc)
		}},
		{"fig2", func() error { return exp.Figure2(w, sc) }},
		{"fig3", func() error { return exp.Figure3(w, sc) }},
		{"fig4", func() error {
			pops := []int{50, 100, 200, 500}
			if sc.Name == "quick" {
				pops = []int{20, 40}
			} else if sc.Name == "small" {
				pops = []int{50, 100, 200}
			}
			return exp.Figure4(w, pops, sc)
		}},
		{"table3", func() error { return exp.Table3(w, sc) }},
		{"table4", func() error {
			cells := []exp.Cell{
				{Dataset: "cifar10", Arch: models.VGG16, Dist: exp.IID},
				{Dataset: "cifar10", Arch: models.ResNet18, Dist: exp.IID},
				{Dataset: "cifar10", Arch: models.VGG16, Dist: exp.Dir03},
				{Dataset: "cifar100", Arch: models.ResNet18, Dist: exp.IID},
			}
			if sc.Name == "quick" {
				cells = cells[:2]
			}
			return exp.Table4(w, cells, sc)
		}},
		{"fig5", func() error { return exp.Figure5(w, sc) }},
		{"fig6", func() error { return exp.Figure6(w, sc) }},
		{"sched", func() error { return exp.TableSched(w, sc) }},
		{"byzantine", func() error { return exp.TableByzantine(w, sc) }},
	}
	ran := false
	for _, e := range experiments {
		if *expName != "all" && *expName != e.name {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Fprintf(w, "\n==== %s (scale=%s) ====\n", e.name, sc.Name)
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(w, "[%s done in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown -exp %q", *expName)
	}
	return nil
}

func table2Cells(datasets, archs, dists string) []exp.Cell {
	var cells []exp.Cell
	for _, ds := range strings.Split(datasets, ",") {
		ds = strings.TrimSpace(ds)
		if ds == "" {
			continue
		}
		for _, arch := range archList(archs) {
			if ds == "femnist" {
				// FEMNIST is naturally non-IID; it has a single setting.
				cells = append(cells, exp.Cell{Dataset: ds, Arch: arch, Dist: exp.Natural})
				continue
			}
			for _, d := range strings.Split(dists, ",") {
				cells = append(cells, exp.Cell{Dataset: ds, Arch: arch, Dist: exp.Dist(strings.TrimSpace(d))})
			}
		}
	}
	return cells
}

// archList parses the comma-separated -archs value.
func archList(archs string) []models.Arch {
	var out []models.Arch
	for _, a := range strings.Split(archs, ",") {
		out = append(out, models.Arch(strings.TrimSpace(a)))
	}
	return out
}

// runPopSim parses a population spec and drives it through the lazy
// population simulator, printing a one-line summary. The weights hash is
// the determinism witness: the same flags and seed reproduce it exactly.
func runPopSim(w io.Writer, specStr string, sc exp.Scale, edges int, simSeconds, timeScale float64, ledgerOut string) error {
	spec, err := core.ParsePopulation(specStr)
	if err != nil {
		return err
	}
	if spec.N < 1 {
		spec.N = 1_000_000
	}
	policy := sc.Sched
	if policy == "" {
		policy = "semiasync"
	}
	start := time.Now()
	res, err := exp.RunPopSim(os.Stderr, spec, sc, edges, simSeconds, timeScale)
	if err != nil {
		return err
	}
	if ledgerOut != "" {
		if err := res.Ledger.WriteFile(ledgerOut); err != nil {
			return fmt.Errorf("ledger %s: %w", ledgerOut, err)
		}
		fmt.Fprintf(os.Stderr, "flbench: ledger summary written to %s\n", ledgerOut)
	}
	// stdout carries only deterministic fields: two same-seed runs must be
	// byte-identical, which is what the CI smoke job diffs. Wall time goes
	// to stderr.
	fmt.Fprintf(w, "popsim clients=%d edges=%d policy=%s sim=%.0fs commits=%d edge-commits=%d live=%d made=%d rl-rows=%d mix=%d/%d/%d weights=%016x\n",
		res.Clients, res.Edges, policy, res.SimTime, res.Commits, res.EdgeCommits,
		res.Live, res.TotalMade, res.RLRows, res.Mix[0], res.Mix[1], res.Mix[2],
		res.WeightsHash)
	fmt.Fprintf(os.Stderr, "flbench: popsim wall %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
