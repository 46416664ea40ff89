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
	"os"
	"strings"
	"time"

	"adaptivefl/internal/core"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/models"
)

func main() {
	var shared exp.Flags
	shared.Register(flag.CommandLine)
	var (
		expName   = flag.String("exp", "all", "experiment to run: table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|sched|byzantine|all")
		datasets  = flag.String("datasets", "cifar10,cifar100,femnist", "Table 2 datasets (comma separated)")
		archs     = flag.String("archs", "vgg16,resnet18", "Table 2 architectures (comma separated)")
		dists     = flag.String("dists", "iid,dir0.6,dir0.3", "Table 2 distributions (comma separated)")
		popSpec   = flag.String("pop", "", "parametric population spec (core.ParsePopulation grammar, e.g. 'mix:n=1000000,weak=0.6,churn=30'); runs a lazy-population simulation instead of the experiment tables")
		edges     = flag.Int("edges", 1, "with -pop: number of edge aggregators in the two-tier hierarchy (1 = flat)")
		simSecs   = flag.Float64("sim-seconds", 86400, "with -pop: virtual-time horizon of the simulation (default one simulated day)")
		timeScale = flag.Float64("time-scale", 0, "with -pop: multiply every priced duration by this factor (0 = auto-calibrate the reduced bench model to a realistic fleet round cadence)")
	)
	flag.Parse()

	if err := shared.Validate(); err != nil {
		fatal(err)
	}
	sc, err := shared.Scale()
	if err != nil {
		fatal(err)
	}
	obsv, obsDone, err := shared.Observability("flbench")
	if err != nil {
		fatal(err)
	}
	defer obsDone()
	sc.Observer = obsv
	if *popSpec != "" {
		sc.Sched = shared.Sched
		if err := runPopSim(*popSpec, sc, *edges, *simSecs, *timeScale, shared.LedgerOut); err != nil {
			fatal(err)
		}
		return
	}
	if shared.LedgerOut != "" {
		fatal(fmt.Errorf("-ledger-out requires -pop"))
	}
	// Unlike cmd/adaptivefl (which rejects specs the selected algorithm
	// would ignore), flbench runs mixed-algorithm experiments by design —
	// so say out loud which rows each spec actually touches.
	if shared.Sched != "" {
		sc.Sched = shared.Sched
		fmt.Fprintf(os.Stderr, "flbench: -sched %s applies to AdaptiveFL variants only; baseline rows keep their synchronous loops\n", shared.Sched)
	}
	sc.Trace = shared.Trace
	if shared.Agg != "" {
		sc.Agg = shared.Agg
		fmt.Fprintf(os.Stderr, "flbench: -agg %s applies to AdaptiveFL variants only; baseline rows keep their exact means\n", shared.Agg)
	}
	if shared.Adversary != "" {
		sc.Adversary = shared.Adversary
		fmt.Fprintf(os.Stderr, "flbench: -adversary %s compromises clients on AdaptiveFL rows only\n", shared.Adversary)
	}
	if shared.Codec != "" {
		sc.Codec = shared.Codec
		fmt.Fprintf(os.Stderr, "flbench: -codec %s applies to AdaptiveFL variants only; baseline rows run the exact in-memory path\n", shared.Codec)
	}
	w := os.Stdout

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Fprintf(w, "\n==== %s (scale=%s) ====\n", name, sc.Name)
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Fprintf(w, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *expName == "all" || *expName == name }

	if want("table1") {
		run("table1", func() error { return exp.Table1(w) })
	}
	if want("table2") {
		cells := table2Cells(*datasets, *archs, *dists)
		run("table2", func() error { return exp.Table2(w, cells, exp.Table2Algorithms, sc) })
	}
	if want("fig2") {
		run("fig2", func() error { return exp.Figure2(w, sc) })
	}
	if want("fig3") {
		run("fig3", func() error { return exp.Figure3(w, sc) })
	}
	if want("fig4") {
		pops := []int{50, 100, 200, 500}
		if sc.Name == "quick" {
			pops = []int{20, 40}
		} else if sc.Name == "small" {
			pops = []int{50, 100, 200}
		}
		run("fig4", func() error { return exp.Figure4(w, pops, sc) })
	}
	if want("table3") {
		run("table3", func() error { return exp.Table3(w, sc) })
	}
	if want("table4") {
		cells := []exp.Cell{
			{Dataset: "cifar10", Arch: models.VGG16, Dist: exp.IID},
			{Dataset: "cifar10", Arch: models.ResNet18, Dist: exp.IID},
			{Dataset: "cifar10", Arch: models.VGG16, Dist: exp.Dir03},
			{Dataset: "cifar100", Arch: models.ResNet18, Dist: exp.IID},
		}
		if sc.Name == "quick" {
			cells = cells[:2]
		}
		run("table4", func() error { return exp.Table4(w, cells, sc) })
	}
	if want("fig5") {
		run("fig5", func() error { return exp.Figure5(w, sc) })
	}
	if want("fig6") {
		run("fig6", func() error { return exp.Figure6(w, sc) })
	}
	if want("sched") {
		run("sched", func() error { return exp.TableSched(w, sc) })
	}
	if want("byzantine") {
		run("byzantine", func() error { return exp.TableByzantine(w, sc) })
	}
}

func table2Cells(datasets, archs, dists string) []exp.Cell {
	var cells []exp.Cell
	for _, ds := range strings.Split(datasets, ",") {
		ds = strings.TrimSpace(ds)
		if ds == "" {
			continue
		}
		for _, a := range strings.Split(archs, ",") {
			arch := models.Arch(strings.TrimSpace(a))
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

// runPopSim parses a population spec and drives it through the lazy
// population simulator, printing a one-line summary. The weights hash is
// the determinism witness: the same flags and seed reproduce it exactly.
func runPopSim(specStr string, sc exp.Scale, edges int, simSeconds, timeScale float64, ledgerOut string) error {
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
	fmt.Printf("popsim clients=%d edges=%d policy=%s sim=%.0fs commits=%d edge-commits=%d live=%d made=%d rl-rows=%d mix=%d/%d/%d weights=%016x\n",
		res.Clients, res.Edges, policy, res.SimTime, res.Commits, res.EdgeCommits,
		res.Live, res.TotalMade, res.RLRows, res.Mix[0], res.Mix[1], res.Mix[2],
		res.WeightsHash)
	fmt.Fprintf(os.Stderr, "flbench: popsim wall %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flbench:", err)
	os.Exit(1)
}
