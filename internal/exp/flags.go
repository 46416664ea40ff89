package exp

import (
	"flag"
	"fmt"
	"os"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/core"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/sched"
	"adaptivefl/internal/wire"
)

// Flags is the CLI surface cmd/adaptivefl and cmd/flbench share: the
// scale selector with its overrides, the engine/wire/robustness spec
// flags, and the observability outputs. Each command Registers the subset
// it supports onto its FlagSet, parses, then calls Validate + Scale +
// Observability; command-specific gating (which algorithms a flag applies
// to, which flags require each other) stays in the command.
type Flags struct {
	// Register
	ScaleName   string
	Par         int
	Codec       string
	Sched       string
	Trace       string
	Agg         string
	Adversary   string
	TraceOut    string
	LedgerOut   string
	MetricsAddr string
	Pprof       bool
	Progress    bool

	// RegisterOverrides
	Rounds  int
	Clients int
	K       int
	Seed    int64
}

// Register binds the shared flags onto fs with the canonical help text.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.ScaleName, "scale", "quick", "fidelity: quick|small|paper")
	fs.IntVar(&f.Par, "par", 0, "training parallelism override (0 = the scale's default)")
	fs.StringVar(&f.Codec, "codec", "", "wire codec for AdaptiveFL model transport: raw|f32|q8|delta (empty = exact in-memory)")
	fs.StringVar(&f.Sched, "sched", "", "aggregation policy for AdaptiveFL runs: sync|deadline|deadline-reuse|semiasync (empty = sync)")
	fs.StringVar(&f.Trace, "trace", "", "availability trace for AdaptiveFL runs: always|straggler[:slow=,prob=,on=]|churn[:on=,off=,...] (empty = always)")
	fs.StringVar(&f.Agg, "agg", "", "server aggregation policy: mean|trim[:frac=]|krum[:frac=,m=]|clip[:tau=], '+'-composable (empty = exact weighted mean)")
	fs.StringVar(&f.Adversary, "adversary", "", "compromise a deterministic client fraction (core.ParseAdversary grammar, e.g. signflip:frac=0.3 or mix:frac=0.3,signflip=1,scale=1)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "stream every span of the run to this file as JSON lines (bounded memory; see docs/OBS.md)")
	fs.StringVar(&f.LedgerOut, "ledger-out", "", "write the run's ledger summary JSON here (the `fltrace audit` cross-check target)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve Prometheus metrics at this address's /metrics while the run is live (e.g. 127.0.0.1:9090)")
	fs.BoolVar(&f.Pprof, "pprof", false, "with -metrics-addr: also mount net/http/pprof under /debug/pprof")
	fs.BoolVar(&f.Progress, "progress", false, "print a live per-commit progress line to stderr")
}

// RegisterOverrides binds the per-run scale overrides (cmd/adaptivefl
// drives a single cell, so it exposes them; flbench's tables own their
// cell geometry).
func (f *Flags) RegisterOverrides(fs *flag.FlagSet) {
	fs.IntVar(&f.Rounds, "rounds", 0, "override rounds")
	fs.IntVar(&f.Clients, "clients", 0, "override client population")
	fs.IntVar(&f.K, "k", 0, "override clients per round")
	fs.Int64Var(&f.Seed, "seed", 0, "override seed")
}

// Validate checks every non-empty spec flag against its grammar — the
// fail-fast pass both commands ran by hand before the flags were shared.
// Grammar errors surface here, before any federation is built.
func (f *Flags) Validate() error {
	if f.Codec != "" {
		if _, err := wire.ByTag(f.Codec); err != nil {
			return err
		}
	}
	if f.Sched != "" {
		if _, err := sched.ParsePolicy(f.Sched); err != nil {
			return err
		}
	}
	if f.Agg != "" {
		if _, _, err := agg.ParsePolicy(f.Agg); err != nil {
			return err
		}
	}
	if f.Adversary != "" {
		if _, err := core.ParseAdversary(f.Adversary); err != nil {
			return err
		}
	}
	return nil
}

// Scale resolves the named scale and applies the overrides. The spec
// flags (codec, sched, trace, agg, adversary) are NOT copied in — which
// of them apply is a per-command decision, so the command assigns them
// after its own gating.
func (f *Flags) Scale() (Scale, error) {
	sc, err := ScaleByName(f.ScaleName)
	if err != nil {
		return sc, err
	}
	if f.Rounds > 0 {
		sc.Rounds = f.Rounds
	}
	if f.Clients > 0 {
		sc.Clients = f.Clients
	}
	if f.K > 0 {
		sc.K = f.K
	}
	if f.Seed != 0 {
		sc.Seed = f.Seed
	}
	if f.Par > 0 {
		sc.Parallelism = f.Par
	}
	return sc, nil
}

// Observability assembles the observer the flags ask for: a JSONL span
// trace, a live /metrics endpoint (with optional pprof) and a per-commit
// progress feed on stderr. With none of the flags set it returns a nil
// observer — the zero-cost disabled path. prefix labels the stderr
// chatter ("adaptivefl", "flbench"). The returned func flushes the trace
// and stops the endpoint; call it once the run is done.
func (f *Flags) Observability(prefix string) (*obs.Observer, func(), error) {
	if f.TraceOut == "" && f.MetricsAddr == "" && !f.Progress {
		return nil, func() {}, nil
	}
	var m *obs.Metrics
	var done []func()
	if f.MetricsAddr != "" {
		m = obs.NewMetrics()
	}
	o := obs.NewObserver(m)
	if f.TraceOut != "" {
		out, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, nil, err
		}
		jw := obs.NewJSONLWriter(out)
		o.AddSink(jw)
		done = append(done, func() {
			if err := jw.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: trace %s: %v\n", prefix, f.TraceOut, err)
			} else {
				fmt.Fprintf(os.Stderr, "%s: trace %s: %d spans\n", prefix, f.TraceOut, jw.Count())
			}
		})
	}
	if f.MetricsAddr != "" {
		bound, shutdown, err := obs.Serve(f.MetricsAddr, m, f.Pprof)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics\n", prefix, bound)
		done = append(done, func() { shutdown() }) //nolint:errcheck // best-effort teardown
	}
	if f.Progress {
		o.AddSink(obs.NewProgressSink(os.Stderr))
	}
	return o, func() {
		for _, fn := range done {
			fn()
		}
	}, nil
}
