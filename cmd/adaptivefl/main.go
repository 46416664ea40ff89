// Command adaptivefl runs a single federated-learning experiment — any of
// the five algorithms on any dataset/architecture/distribution cell — and
// prints the learning curve plus final metrics.
//
// Usage:
//
//	adaptivefl -alg AdaptiveFL -dataset cifar10 -arch vgg16 -dist iid \
//	           -scale quick [-rounds 30] [-clients 50] [-k 10] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"adaptivefl/internal/baselines"
	"adaptivefl/internal/core"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/fednet"
	"adaptivefl/internal/models"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/obs/analyze"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/wire"
)

func main() {
	var shared exp.Flags
	shared.Register(flag.CommandLine)
	shared.RegisterOverrides(flag.CommandLine)
	var (
		alg       = flag.String("alg", "AdaptiveFL", "algorithm: All-Large|Decoupled|HeteroFL|ScaleFL|AdaptiveFL|AdaptiveFL+{Greedy,Random,C,S,CS}|AdaptiveFL-Coarse")
		dataset   = flag.String("dataset", "cifar10", "dataset: cifar10|cifar100|femnist|widar")
		arch      = flag.String("arch", "vgg16", "architecture: vgg16|resnet18|mobilenetv2")
		dist      = flag.String("dist", "iid", "distribution: iid|dir0.6|dir0.3|natural")
		useFednet = flag.Bool("fednet", false, "dispatch through real loopback HTTP agents (fednet.Cluster) instead of in-process training")
		wallOut   = flag.String("wall-out", "", "with -fednet: stream wall-clock HTTP timing records (server + agent side, keyed by flight ID) to this JSONL file for `fltrace join`")
	)
	flag.Parse()

	if err := shared.Validate(); err != nil {
		fatal(err)
	}
	sc, err := shared.Scale()
	if err != nil {
		fatal(err)
	}
	obsv, obsDone, err := shared.Observability("adaptivefl")
	if err != nil {
		fatal(err)
	}
	defer obsDone()
	sc.Observer = obsv

	// The grammar of every spec flag is already validated; what remains is
	// this command's gating — a single experiment cell, so a spec that the
	// selected algorithm would silently ignore is an error, not a shrug.
	requireAdaptive := func(flagName, val string) {
		if val != "" && !strings.HasPrefix(*alg, "AdaptiveFL") {
			fatal(fmt.Errorf("-%s applies to AdaptiveFL variants only (got -alg %s)", flagName, *alg))
		}
	}
	// Only the AdaptiveFL server moves models through a codec, runs
	// through the event engine, or owns a robust aggregation stage; the
	// baselines keep their own synchronous loops and exact means.
	requireAdaptive("codec", shared.Codec)
	requireAdaptive("sched", shared.Sched)
	requireAdaptive("trace", shared.Trace)
	requireAdaptive("agg", shared.Agg)
	requireAdaptive("adversary", shared.Adversary)
	sc.Codec = shared.Codec
	sc.Sched = shared.Sched
	sc.Trace = shared.Trace
	sc.Agg = shared.Agg
	sc.Adversary = shared.Adversary

	if *wallOut != "" && !*useFednet {
		fatal(fmt.Errorf("-wall-out requires -fednet (wall records time real HTTP round trips)"))
	}
	ledgerOut := &shared.LedgerOut
	if *ledgerOut != "" && !strings.HasPrefix(*alg, "AdaptiveFL") {
		fatal(fmt.Errorf("-ledger-out applies to AdaptiveFL variants only (got -alg %s)", *alg))
	}

	fed, err := exp.BuildFederation(models.Arch(*arch), *dataset, exp.Dist(*dist), exp.DefaultProportions, sc)
	if err != nil {
		fatal(err)
	}
	if *useFednet {
		// Real transport: one loopback HTTP agent per client, the trainer
		// POSTing every dispatch. The AdaptiveFL pool (p=3) must match the
		// agents' — variants with a different pool cannot ride this path.
		if *alg != "AdaptiveFL" && !strings.HasPrefix(*alg, "AdaptiveFL+") {
			fatal(fmt.Errorf("-fednet applies to AdaptiveFL (p=3) variants only (got -alg %s)", *alg))
		}
		cluster, err := fednet.NewCluster(fed.Clients, fed.Model, prune.Config{P: 3}, sc.TrainConfig())
		if err != nil {
			fatal(err)
		}
		defer cluster.Close()
		if sc.Codec != "" {
			c, err := wire.ByTag(sc.Codec)
			if err != nil {
				fatal(err)
			}
			// Negotiate rather than force: the run exercises the same
			// GET /train handshake a heterogeneous fleet would.
			cluster.Trainer.Negotiate(c)
		}
		if m := sc.Observer.Metrics(); m != nil {
			// One shared registry: the trainer's dispatch round trips and
			// every agent's request handling land in the same scrape, and
			// each agent's own port additionally answers GET /metrics.
			cluster.SetMetrics(m, func(int) *obs.Metrics { return m })
			if shared.Pprof {
				for _, a := range cluster.Agents {
					a.Pprof = true
				}
			}
			fmt.Fprintf(os.Stderr, "adaptivefl: agent metrics e.g. %s\n", cluster.MetricsURL(0))
		}
		if *wallOut != "" {
			f, err := os.Create(*wallOut)
			if err != nil {
				fatal(err)
			}
			wj := obs.NewJSONLWriter(f)
			cluster.SetWallLog(wj)
			defer func() {
				if err := wj.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "adaptivefl: wall %s: %v\n", *wallOut, err)
				} else {
					fmt.Fprintf(os.Stderr, "adaptivefl: wall records in %s\n", *wallOut)
				}
			}()
		}
		if _, adv, err := sc.SplitAdversary(); err != nil {
			fatal(err)
		} else if adv.Enabled() {
			// Arm the agents with the resolved (spec, seed): the attacker
			// set matches an in-process run exactly, and Corrupt clients
			// flip bits on the real HTTP payload.
			cluster.SetAdversary(adv)
			fmt.Fprintf(os.Stderr, "adaptivefl: agents armed with adversary %q (seed %d)\n", adv, adv.Seed)
		}
		sc.Trainer = cluster.Trainer
		fmt.Printf("fednet: %d loopback agents spawned (codec=%q negotiated per agent)\n",
			len(cluster.Agents), sc.Codec)
	}
	runner, err := exp.NewRunner(*alg, fed, sc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s on %s/%s/%s — %d clients, K=%d, %d rounds (scale=%s)\n",
		runner.Name(), *dataset, *arch, *dist, sc.Clients, sc.K, sc.Rounds, sc.Name)

	start := time.Now()
	curve, err := exp.RunCurve(runner, fed, sc)
	if err != nil {
		fatal(err)
	}
	fmt.Print(curve.CSV())
	fmt.Printf("best full: %.2f%%  best avg: %.2f%%  (wall %v)\n",
		exp.BestOf(curve, "full")*100, exp.BestOf(curve, "avg")*100,
		time.Since(start).Round(time.Millisecond))
	if adaptive, ok := baselines.AdaptiveOf(runner); ok {
		commits := adaptive.Eng.Commits()
		reused := 0
		for _, c := range commits {
			reused += c.LateReused
		}
		fmt.Printf("simulated wall-clock (policy=%s, trace=%q): %.1fs over %d aggregations",
			adaptive.Eng.Policy(), sc.Trace, adaptive.SimTime(), len(commits))
		if reused > 0 {
			fmt.Printf(", %d late uploads reused", reused)
		}
		fmt.Println()
		fmt.Printf("communication waste: %.2f%%\n", adaptive.Waste()*100)
		if sc.Agg != "" || sc.Adversary != "" {
			rej, clipped := 0, 0
			for _, st := range adaptive.Srv.Stats() {
				rej += st.Rejected
				clipped += st.Clipped
			}
			fmt.Printf("robust ledger (agg=%q): %d uploads rejected, %d clipped\n", sc.Agg, rej, clipped)
		}
		if sc.Codec != "" || *useFednet {
			sent, back := core.TotalWireBytes(adaptive.Srv.Stats())
			fmt.Printf("wire bytes (codec=%s): %.2f MB down, %.2f MB up\n",
				sc.Codec, float64(sent)/1e6, float64(back)/1e6)
		}
		if *ledgerOut != "" {
			ledger := analyze.SummarizeStats(adaptive.Srv.Stats())
			ledger.Policy = string(adaptive.Eng.Policy())
			ledger.HasDiscounts = true
			ledger.StalenessExp = adaptive.Eng.StalenessExp()
			ledger.DiscountSum = adaptive.Eng.DiscountSum()
			if err := ledger.WriteFile(*ledgerOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "adaptivefl: ledger summary written to %s\n", *ledgerOut)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adaptivefl:", err)
	os.Exit(1)
}
