// Command bench is the repository's one benchmark: four workloads, each
// measured end to end (tracing off) and layer by layer (a traced run plus
// probes of the layers' exported functions). See README.md.
//
//	bash bench/run.sh                       every workload, both modes, all checks
//	bash bench/run.sh -out a.json -runs 5   …and record the results
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh --workload wire_fanout --seed 3 --seconds 20 --trace 0
//
// The last form is the driver contract (BENCHMARK.json): one workload in
// one mode, the result as one JSON object on the last line of stdout.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Int64("seed", 1, "workload seed (exp.Scale.Seed); the program sees only inputs generated from it")
		seconds = flag.Float64("seconds", runSeconds, "window length; scales every workload's fixed commit window against run_seconds")
		traceF  = flag.Int("trace", -1, "driver contract: 0 = end-to-end metrics, 1 = per-layer metrics (implies one JSON result line)")
		mode    = flag.String("mode", "all", "e2e|trace|all")
		out     = flag.String("out", "", "write the results JSON here")
		runs    = flag.Int("runs", 1, "repeat the end-to-end runs this many times (spread for -compare)")
		compare = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		outDir  = flag.String("outdir", "bench/out", "directory for trace files")
		specF   = flag.Bool("spec", false, "print BENCHMARK.json from the metric catalogue")
		child   = flag.String("child", "", "internal: run as a child in this role (e2e|setup|ref|trace)")
	)
	flag.Parse()

	switch {
	case *specF:
		b, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *child != "":
		if err := runChild(*child, *wlName, *seed, *seconds, *outDir); err != nil {
			fatal(err)
		}
	case *traceF >= 0:
		if err := runContract(*wlName, *seed, *seconds, *traceF == 1, *outDir); err != nil {
			fatal(err)
		}
	default:
		ok, err := runSuite(*wlName, *mode, *seed, *seconds, *runs, *out, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runChild is one workload in one mode in its own process, so peak RSS,
// GC state and training arenas never leak between workloads. It prints
// its result as one JSON line.
func runChild(role, name string, seed int64, seconds float64, outDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var res *childResult
	switch role {
	case "e2e", "setup", "ref":
		commits := window(w.commits, seconds)
		if role == "ref" {
			// The traced run's untraced twin: same window, same seed.
			commits = window(w.traceCommits, seconds)
		}
		if w.popSpec != "" {
			res, _, err = runPopE2E(w, seed, commits, role == "setup")
		} else {
			res, err = runE2E(w, seed, commits, role == "setup")
		}
	case "trace":
		res, err = runTrace(w, seed, seconds, outDir)
	default:
		err = fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		return fmt.Errorf("%s/%s: %w", name, role, err)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn re-executes this binary as a child and parses its result line.
// Children run one at a time with GOMAXPROCS pinned in their environment
// (internal/tensor sizes its worker pool from it at init).
func spawn(role string, w *workload, seed int64, seconds float64, outDir string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", role, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-outdir", outDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(parallelism))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s/%s: %w", w.name, role, err)
	}
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("child %s/%s: result: %w", w.name, role, err)
	}
	return &res, nil
}

// children is how many fresh processes an end-to-end invocation runs, one
// after another: setup_s is the median of their set-ups. The workload's
// first `seeds` children also run its timed window; the rest stop after
// the warm-up commit.
const children = 5

// childSeed is the i-th child's workload seed. The stride keeps the
// derived seeds of nearby --seed values apart.
func childSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// invocation is one (workload, mode) measurement assembled from its
// children: the metric set the contract asks for plus the checks.
type invocation struct {
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Seed     int64   `json:"seed"`
	Metrics  metrics `json:"metrics"`
	// Extras are the end-to-end children's readings that are catalogued per
	// layer (they do not repeat across seeds within a bound, or are not
	// defined on every workload), averaged; printed for information.
	Extras   metrics `json:"extras,omitempty"`
	Samples  int     `json:"samples"`
	Commits  int     `json:"commits"`
	Hash     string  `json:"hash"`
	AccFinal float64 `json:"acc_final,omitempty"`
	verdicts
}

// measureE2E is the tracing-off invocation: n children at n seeds, the
// first w.seeds of them full. The full children's totals are pooled
// before the metrics are derived; Hash and AccFinal are the first's.
func measureE2E(w *workload, seed int64, seconds float64, n int, outDir string) (*invocation, error) {
	inv := &invocation{Workload: w.name, Seed: seed, Metrics: metrics{}, Extras: metrics{}}
	var pool totals
	var setupS []float64
	full := min(w.seeds, n)
	for i := 0; i < n; i++ {
		role := "setup"
		if i < full {
			role = "e2e"
		}
		c, err := spawn(role, w, childSeed(seed, i), seconds, outDir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, c.Metrics["setup_s"])
		if i >= full {
			continue
		}
		pool.add(c.Totals)
		for _, name := range e2eExtras {
			inv.Extras[name] += c.Metrics[name] / float64(full)
		}
		inv.Attempted += c.Attempted
		inv.Failed += c.Failed
		inv.Checks = append(inv.Checks, c.Checks...)
		if i == 0 {
			inv.Hash, inv.AccFinal = c.Hash, c.AccFinal
		}
	}
	pool.metrics(inv.Metrics)
	inv.Metrics["setup_s"] = quantile(setupS, 0.5)
	inv.Extras["commit_s_p75"] = inv.Metrics["commit_s_p75"]
	inv.Commits, inv.Samples = pool.Commits, len(pool.Times)
	inv.finish(endToEnd)
	return inv, nil
}

// e2eExtras are measured by the end-to-end child but catalogued per layer.
var e2eExtras = []string{"commit_s_p75", "peak_rss_mib", "sim_s_per_commit", "comm_waste_rate", "acc_avg_best"}

// measureTrace is the traced invocation: the traced child and its
// untraced twin at the same window and seed. The twin supplies output
// check (1) — both must end on the same global-weights hash — and the
// base of obs.trace_overhead_share.
func measureTrace(w *workload, seed int64, seconds float64, outDir string) (*invocation, error) {
	ref, err := spawn("ref", w, seed, seconds, outDir)
	if err != nil {
		return nil, err
	}
	tr, err := spawn("trace", w, seed, seconds, outDir)
	if err != nil {
		return nil, err
	}
	inv := &invocation{Workload: w.name, Trace: true, Seed: seed, Metrics: tr.Metrics,
		Samples: tr.Samples, Commits: tr.Commits, Hash: tr.Hash, AccFinal: tr.AccFinal, verdicts: tr.verdicts}
	inv.Failed += ref.Failed
	inv.Checks = append(inv.Checks, ref.Checks...)
	inv.check("trace-hash", tr.Hash == ref.Hash && tr.Hash != "",
		"traced run ends on %s, untraced twin on %s", tr.Hash, ref.Hash)
	base, traced := ref.Metrics["run_s"], tr.Metrics["run_s"]
	overhead := 0.0
	if base > 0 && traced > base {
		overhead = (traced - base) / base
	}
	inv.Metrics["obs.trace_overhead_share"] = overhead
	// Untraced readings the per-layer catalogue carries come from the twin:
	// the traced child's own RSS includes the probes.
	inv.Metrics["proc.peak_rss_mib"] = ref.Metrics["peak_rss_mib"]
	inv.Metrics["sched.sim_s_per_commit"] = ref.Metrics["sim_s_per_commit"]
	if w.handRun && w.scale(seed).Sched != "" {
		// The hand-run bypasses the engine; its untraced twin's commit is
		// Engine.Step, so step − the hand-run's stages is the engine's cost.
		inv.Metrics["sched.step_s"] = ref.Metrics["commit_s_p50"]
	}
	inv.Metrics["proc.failed_share"] = float64(inv.Failed) / float64(max(inv.Attempted, 1))
	inv.finish(perLayer)
	return inv, nil
}

// finish runs output check (5) over the assembled metric set and drops
// anything outside it.
func (inv *invocation) finish(defs []metricDef) {
	bad := inv.Metrics.complete(defs)
	inv.check("metrics-complete", len(bad) == 0, "missing, NaN or negative: %v", bad)
	keep := metrics{}
	for _, d := range defs {
		if v, ok := inv.Metrics[d.Name]; ok {
			keep[d.Name] = v
		}
	}
	inv.Metrics = keep
}

func (inv *invocation) correct() bool { return inv.Failed == 0 }

// contractResult is the driver's result line.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract measures one workload in one mode and prints the result as
// the last line of stdout. A failed check is reported in the line
// (correct=false) and as a non-zero exit.
func runContract(name string, seed int64, seconds float64, trace bool, outDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	inv, defs, err := measure(w, trace, seed, seconds, outDir)
	if err != nil {
		return err
	}
	printInvocation(os.Stdout, inv, defs)
	res := contractResult{Correct: inv.correct(), Attempted: max(inv.Attempted, 1), Failed: inv.Failed,
		Metrics: map[string]contractValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = contractValue{inv.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !inv.correct() {
		os.Exit(1)
	}
	return nil
}

func measure(w *workload, trace bool, seed int64, seconds float64, outDir string) (*invocation, []metricDef, error) {
	if trace {
		inv, err := measureTrace(w, seed, seconds, outDir)
		return inv, perLayer, err
	}
	inv, err := measureE2E(w, seed, seconds, children, outDir)
	return inv, endToEnd, err
}

func printInvocation(out *os.File, inv *invocation, defs []metricDef) {
	kind := "end-to-end"
	if inv.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(out, "\n== %s · %s · seed %d · %d commits (n=%d commit timings) · hash %s",
		inv.Workload, kind, inv.Seed, inv.Commits, inv.Samples, inv.Hash)
	if inv.AccFinal > 0 {
		fmt.Fprintf(out, " · final avg acc %.3f", inv.AccFinal)
	}
	fmt.Fprintln(out)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", d.Name, inv.Metrics[d.Name], d.Unit)
	}
	for _, name := range sortedKeys(inv.Extras) {
		fmt.Fprintf(out, "  (%s %.6g)\n", name, inv.Extras[name])
	}
	for _, c := range inv.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "  check %s %-18s %s\n", verdict, c.Name, c.Detail)
	}
}

// environment is recorded with every results file so -compare can flag a
// cross-configuration comparison instead of trusting it.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Windows are the timed commit counts the run used, e2e then trace
	// (popsim: the nominal counts its virtual-time horizons are sized for).
	Windows map[string][2]int `json:"windows"`
}

func currentEnv(seed int64, seconds float64) environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: parallelism, GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Seconds: seconds, Windows: map[string][2]int{}}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	for _, w := range workloads {
		env.Windows[w.name] = [2]int{window(w.commits, seconds), window(w.traceCommits, seconds)}
	}
	return env
}

// results is the -out file: every run's values per (workload, metric).
type results struct {
	Env       environment                 `json:"env"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	EndToEnd map[string][]float64 `json:"end_to_end,omitempty"`
	Extras   map[string][]float64 `json:"extras,omitempty"`
	PerLayer map[string]float64   `json:"per_layer,omitempty"`
	Hash     string               `json:"hash,omitempty"`
	Checks   []check              `json:"checks,omitempty"`
}

// runSuite is the one command: every selected workload sequentially, end
// to end then traced, every check, every metric printed by name and unit.
func runSuite(only, mode string, seed int64, seconds float64, runs int, out, outDir string) (bool, error) {
	if mode != "e2e" && mode != "trace" && mode != "all" {
		return false, fmt.Errorf("unknown -mode %q (e2e|trace|all)", mode)
	}
	selected := workloads
	if only != "" {
		w, err := workloadByName(only)
		if err != nil {
			return false, err
		}
		selected = []*workload{w}
	}
	res := results{Env: currentEnv(seed, seconds), Workloads: map[string]*workloadResults{}}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit, seed, seconds)
	ok := true
	for _, w := range selected {
		wr := &workloadResults{EndToEnd: map[string][]float64{}, Extras: map[string][]float64{}}
		res.Workloads[w.name] = wr
		if mode != "trace" {
			for i := 0; i < runs; i++ {
				inv, err := measureE2E(w, seed, seconds, children, outDir)
				if err != nil {
					return false, err
				}
				printInvocation(os.Stdout, inv, endToEnd)
				for name, v := range inv.Metrics {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], v)
				}
				for name, v := range inv.Extras {
					wr.Extras[name] = append(wr.Extras[name], v)
				}
				wr.Hash = inv.Hash
				wr.Checks = append(wr.Checks, inv.Checks...)
				ok = ok && inv.correct()
			}
		}
		if mode != "e2e" {
			inv, err := measureTrace(w, seed, seconds, outDir)
			if err != nil {
				return false, err
			}
			printInvocation(os.Stdout, inv, perLayer)
			wr.PerLayer = inv.Metrics
			wr.Checks = append(wr.Checks, inv.Checks...)
			ok = ok && inv.correct()
		}
	}
	if ok {
		fmt.Println("\nbench: every output check passed")
	} else {
		fmt.Println("\nbench: OUTPUT CHECKS FAILED")
	}
	if out == "" {
		return ok, nil
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return false, err
	}
	return ok, os.WriteFile(out, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
