package exp

import (
	"fmt"
	"io"

	"adaptivefl/internal/baselines"
	"adaptivefl/internal/core"
	"adaptivefl/internal/eval"
	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/testbed"
)

// Table1 regenerates the paper's Table 1 for each architecture: the
// split settings of the full-scale model with p = 3 (params, MACs and
// size ratio per pool member). VGG16, the paper's own table, prints the
// published values alongside.
func Table1(w io.Writer, archs []models.Arch) error {
	paper := map[string][2]float64{
		"L1": {33.65, 333.22}, "M1": {16.81, 272.17}, "M2": {15.41, 239.95},
		"M3": {14.84, 203.41}, "S1": {8.39, 239.00}, "S2": {6.48, 191.31}, "S3": {5.67, 139.07},
	}
	for ai, arch := range archs {
		pool, err := prune.BuildPool(models.Config{Arch: arch, NumClasses: 10}, prune.Config{P: 3})
		if err != nil {
			return err
		}
		withPaper := arch == models.VGG16
		if ai > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "Table 1 — split settings for %s (p=3)\n", arch)
		if withPaper {
			fmt.Fprintln(w, "level  r_w    I   params(M)  paper  MACs(M)  paper   ratio")
		} else {
			fmt.Fprintln(w, "level  r_w    I   params(M)  MACs(M)   ratio")
		}
		full := float64(pool.Largest().Size)
		for i := len(pool.Members) - 1; i >= 0; i-- {
			m := pool.Members[i]
			iStr := fmt.Sprintf("%3d", m.I)
			if m.Level == prune.LevelL {
				iStr = "N/A"
			}
			params, macs, ratio := float64(m.Size)/1e6, float64(m.MACs)/1e6, float64(m.Size)/full
			if withPaper {
				p := paper[m.Name()]
				fmt.Fprintf(w, "%-5s  %.2f  %s  %9.2f  %5.2f  %7.2f  %6.2f  %.2f\n",
					m.Name(), m.Rw, iStr, params, p[0], macs, p[1], ratio)
			} else {
				fmt.Fprintf(w, "%-5s  %.2f  %s  %9.2f  %7.2f  %.2f\n", m.Name(), m.Rw, iStr, params, macs, ratio)
			}
		}
	}
	return nil
}

// Cell identifies one Table 2 cell.
type Cell struct {
	Dataset string
	Arch    models.Arch
	Dist    Dist
}

// CellResult is the avg/full outcome of one algorithm on one cell.
type CellResult struct {
	Algorithm string
	Avg, Full float64
	Curve     *eval.Curve
}

// RunCell executes one algorithm on one experiment cell.
func RunCell(cell Cell, alg string, proportions [3]float64, sc Scale) (*CellResult, error) {
	fed, err := BuildFederation(cell.Arch, cell.Dataset, cell.Dist, proportions, sc)
	if err != nil {
		return nil, err
	}
	r, err := NewRunner(alg, fed, sc)
	if err != nil {
		return nil, err
	}
	curve, err := RunCurve(r, fed, sc)
	if err != nil {
		return nil, err
	}
	return &CellResult{
		Algorithm: alg,
		Avg:       BestOf(curve, "avg"),
		Full:      BestOf(curve, "full"),
		Curve:     curve,
	}, nil
}

// DefaultProportions is the paper's 4:3:3 weak:medium:strong mix.
var DefaultProportions = [3]float64{4, 3, 3}

// Table2Algorithms lists the five compared methods in paper order.
var Table2Algorithms = []string{"All-Large", "Decoupled", "HeteroFL", "ScaleFL", "AdaptiveFL"}

// Table2 regenerates (a slice of) the paper's Table 2. Which cells run is
// caller-controlled to keep CPU budgets manageable.
func Table2(w io.Writer, cells []Cell, algs []string, sc Scale) error {
	fmt.Fprintf(w, "Table 2 — test accuracy (%%), scale=%s\n", sc.Name)
	for _, cell := range cells {
		fmt.Fprintf(w, "\n%s / %s / %s\n", cell.Dataset, cell.Arch, cell.Dist)
		fmt.Fprintln(w, "algorithm     avg     full")
		for _, alg := range algs {
			res, err := RunCell(cell, alg, DefaultProportions, sc)
			if err != nil {
				return fmt.Errorf("cell %+v alg %s: %w", cell, alg, err)
			}
			avgStr := "   -"
			if res.Avg > 0 {
				avgStr = fmt.Sprintf("%5.2f", res.Avg*100)
			}
			fmt.Fprintf(w, "%-12s %s   %5.2f\n", alg, avgStr, res.Full*100)
		}
	}
	return nil
}

// Figure2 regenerates the learning-curve comparison (CIFAR-10/100 ×
// IID/α=0.3 on VGG16): one CSV block of "avg" accuracy per setting.
func Figure2(w io.Writer, sc Scale) error {
	algs := []string{"Decoupled", "HeteroFL", "ScaleFL", "AdaptiveFL"}
	for _, cell := range []Cell{
		{"cifar10", models.VGG16, IID},
		{"cifar100", models.VGG16, IID},
		{"cifar10", models.VGG16, Dir03},
		{"cifar100", models.VGG16, Dir03},
	} {
		fmt.Fprintf(w, "\nFigure 2 — %s %s %s (avg accuracy per round)\n", cell.Dataset, cell.Arch, cell.Dist)
		merged := &eval.Curve{}
		for _, alg := range algs {
			res, err := RunCell(cell, alg, DefaultProportions, sc)
			if err != nil {
				return err
			}
			for _, p := range res.Curve.Points {
				v, ok := p.Acc["avg"]
				if !ok {
					v = p.Acc["full"]
				}
				merged.Add(p.Round, map[string]float64{alg: v})
			}
		}
		fmt.Fprint(w, collate(merged).CSV())
	}
	return nil
}

// collate merges points sharing a round into single rows.
func collate(c *eval.Curve) *eval.Curve {
	byRound := map[int]map[string]float64{}
	var order []int
	for _, p := range c.Points {
		m, ok := byRound[p.Round]
		if !ok {
			m = map[string]float64{}
			byRound[p.Round] = m
			order = append(order, p.Round)
		}
		for k, v := range p.Acc {
			m[k] = v
		}
	}
	out := &eval.Curve{}
	for _, r := range order {
		out.Add(r, byRound[r])
	}
	return out
}

// Figure3 regenerates the per-level submodel comparison (0.25×/0.5×/1.0×)
// on CIFAR-10 VGG16 IID for the three heterogeneous methods.
func Figure3(w io.Writer, sc Scale) error {
	fmt.Fprintln(w, "Figure 3 — submodel accuracy (%), cifar10/vgg16/iid")
	fmt.Fprintln(w, "algorithm    S(0.25x)  M(0.5x)  L(1.0x)")
	cell := Cell{"cifar10", models.VGG16, IID}
	for _, alg := range []string{"HeteroFL", "ScaleFL", "AdaptiveFL"} {
		res, err := RunCell(cell, alg, DefaultProportions, sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %8.2f %8.2f %8.2f\n", alg,
			BestOf(res.Curve, "S1")*100, BestOf(res.Curve, "M1")*100, BestOf(res.Curve, "L1")*100)
	}
	return nil
}

// Figure4 regenerates the client-scalability sweep (K = population sizes,
// CIFAR-10 ResNet18 α=0.6): final "avg" accuracy per algorithm per K.
func Figure4(w io.Writer, populations []int, sc Scale) error {
	algs := []string{"HeteroFL", "ScaleFL", "AdaptiveFL"}
	fmt.Fprintln(w, "Figure 4 — scalability on cifar10/resnet18/dir0.6 (best avg %)")
	fmt.Fprintf(w, "%-12s", "algorithm")
	for _, n := range populations {
		fmt.Fprintf(w, "  K=%-4d", n)
	}
	fmt.Fprintln(w)
	type key struct {
		alg string
		n   int
	}
	resCache := map[key]float64{}
	for _, n := range populations {
		s := sc
		s.Clients = n
		s.K = n / 10
		if s.K < 2 {
			s.K = 2
		}
		if s.Parallelism > s.K {
			s.Parallelism = s.K
		}
		cell := Cell{"cifar10", models.ResNet18, Dir06}
		for _, alg := range algs {
			res, err := RunCell(cell, alg, DefaultProportions, s)
			if err != nil {
				return err
			}
			best := res.Avg
			if best == 0 {
				best = res.Full
			}
			resCache[key{alg, n}] = best
		}
	}
	for _, alg := range algs {
		fmt.Fprintf(w, "%-12s", alg)
		for _, n := range populations {
			fmt.Fprintf(w, "  %6.2f", resCache[key{alg, n}]*100)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table3 regenerates the device-proportion sweep on CIFAR-10 VGG16 IID.
func Table3(w io.Writer, sc Scale) error {
	props := []struct {
		name string
		p    [3]float64
	}{
		{"4:3:3", [3]float64{4, 3, 3}},
		{"8:1:1", [3]float64{8, 1, 1}},
		{"1:8:1", [3]float64{1, 8, 1}},
		{"1:1:8", [3]float64{1, 1, 8}},
	}
	algs := []string{"All-Large", "HeteroFL", "ScaleFL", "AdaptiveFL"}
	fmt.Fprintln(w, "Table 3 — performance under device proportions (cifar10/vgg16/iid, best avg/full %)")
	fmt.Fprintf(w, "%-12s", "algorithm")
	for _, pr := range props {
		fmt.Fprintf(w, "  %14s", pr.name)
	}
	fmt.Fprintln(w)
	cell := Cell{"cifar10", models.VGG16, IID}
	for _, alg := range algs {
		fmt.Fprintf(w, "%-12s", alg)
		for _, pr := range props {
			res, err := RunCell(cell, alg, pr.p, sc)
			if err != nil {
				return err
			}
			if res.Avg > 0 {
				fmt.Fprintf(w, "  %6.2f/%6.2f", res.Avg*100, res.Full*100)
			} else {
				fmt.Fprintf(w, "       -/%6.2f", res.Full*100)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table4 regenerates the fine- vs coarse-grained pruning ablation: full
// accuracy of AdaptiveFL with p=3 against p=1.
func Table4(w io.Writer, cells []Cell, sc Scale) error {
	fmt.Fprintln(w, "Table 4 — ablation of fine-grained pruning (best full %)")
	fmt.Fprintln(w, "dataset/arch/dist           coarse(p=1)  fine(p=3)")
	for _, cell := range cells {
		coarse, err := RunCell(cell, "AdaptiveFL-Coarse", DefaultProportions, sc)
		if err != nil {
			return err
		}
		fine, err := RunCell(cell, "AdaptiveFL", DefaultProportions, sc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-26s  %10.2f  %9.2f (%+.2f)\n",
			fmt.Sprintf("%s/%s/%s", cell.Dataset, cell.Arch, cell.Dist),
			coarse.Full*100, fine.Full*100, (fine.Full-coarse.Full)*100)
	}
	return nil
}

// Figure5 regenerates the selection-strategy ablation on CIFAR-100
// ResNet18 IID: communication waste and best accuracy per variant.
func Figure5(w io.Writer, sc Scale) error {
	variants := []string{"AdaptiveFL+Greedy", "AdaptiveFL+Random", "AdaptiveFL+C", "AdaptiveFL+S", "AdaptiveFL+CS"}
	fmt.Fprintln(w, "Figure 5 — RL client-selection ablation (cifar100/resnet18/iid)")
	fmt.Fprintln(w, "variant             waste(%)  best-avg(%)  best-full(%)")
	cell := Cell{"cifar100", models.ResNet18, IID}
	for _, alg := range variants {
		fed, err := BuildFederation(cell.Arch, cell.Dataset, cell.Dist, DefaultProportions, sc)
		if err != nil {
			return err
		}
		r, err := NewRunner(alg, fed, sc)
		if err != nil {
			return err
		}
		curve, err := RunCurve(r, fed, sc)
		if err != nil {
			return err
		}
		waste := 0.0
		if a, ok := baselines.AdaptiveOf(r); ok {
			waste = a.Waste()
		}
		fmt.Fprintf(w, "%-18s  %8.2f  %11.2f  %12.2f\n",
			alg, waste*100, BestOf(curve, "avg")*100, BestOf(curve, "full")*100)
	}
	return nil
}

// Figure6 regenerates the simulated test-bed experiment: Widar-like data
// and MobileNetV2 on the Table 5 platform (17 devices, 10 per round),
// reporting accuracy against simulated wall-clock seconds.
func Figure6(w io.Writer, sc Scale) error {
	s := sc
	s.Clients = 17
	s.K = 10
	if s.Parallelism > s.K {
		s.Parallelism = s.K
	}
	// Device mix per Table 5: 4 weak Pi, 10 medium Nano, 3 strong Xavier.
	props := [3]float64{4, 10, 3}
	fmt.Fprintln(w, "Figure 6 — simulated test-bed (widar/mobilenetv2, 17 devices, Table 5)")
	fmt.Fprintln(w, "algorithm    round  sim-time(s)  full-acc(%)")
	for _, alg := range []string{"HeteroFL", "ScaleFL", "AdaptiveFL"} {
		fedRun, err := BuildFederation(models.MobileNetV2, "widar", Natural, props, s)
		if err != nil {
			return err
		}
		r, err := NewRunner(alg, fedRun, s)
		if err != nil {
			return err
		}
		simRun, err := testbed.NewSim(testbed.Table5Platform())
		if err != nil {
			return err
		}
		for round := 1; round <= s.Rounds; round++ {
			if err := r.Round(); err != nil {
				return err
			}
			if a, ok := baselines.AdaptiveOf(r); ok {
				// The engine priced every flight on the same platform.
				simRun.Advance(a.SimTime() - simRun.Clock())
			} else {
				simRun.Advance(staticRoundTime(simRun, fedRun, r.(*baselines.Static), s))
			}
			if round%s.EvalEvery == 0 || round == s.Rounds {
				acc, err := r.Evaluate(fedRun.Test, 64)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%-12s %5d  %11.1f  %10.2f\n", alg, round, simRun.Clock(), acc["full"]*100)
			}
		}
	}
	return nil
}

// DefaultByzantineAttack is the attack the byzantine table mounts when
// the scale does not name one: 30% of the fleet compromised, split evenly
// between sign-flips and 10× scale attacks — the two classic
// model-poisoning behaviors, well past the 20% the acceptance bar asks
// for.
const DefaultByzantineAttack = "mix:frac=0.3,signflip=1,scale=1"

// ByzantineRow is one machine-readable row of the byzantine table: an
// aggregation policy's outcome under (or without) attack.
type ByzantineRow struct {
	Label     string
	Agg       string // agg.ParsePolicy spec; "" = exact weighted mean
	Adversary string // core.ParseAdversary spec; "" = attack-free
	Full      float64
	// Rejected / Clipped sum the run's ledgered rejections and clips.
	Rejected int
	Clipped  int
	// Hash fingerprints the final global weights (nn.HashState); two
	// same-seed runs of the same row must agree bit-for-bit.
	Hash uint64
}

// ByzantineRows runs the Byzantine-resilience comparison on one cell:
// an attack-free weighted-mean baseline, the same mean under attack
// (FedAvg's failure mode), then the robust policies under the identical
// attacker set. sc.Adversary overrides the mounted attack;
// sc.Agg is ignored (each row sets its own policy).
func ByzantineRows(cell Cell, sc Scale) ([]ByzantineRow, error) {
	attack := sc.Adversary
	if attack == "" {
		attack = DefaultByzantineAttack
	}
	// trim:frac=0.45 keeps only the coordinate-wise median band — the
	// strongest trim, needed because per-round attacker fractions swing
	// well above the population's 30% when K clients are sampled from it.
	// Krum is included as an honest negative result: selecting m whole
	// updates per round starves the coordinates only wide submodels
	// cover, so under prefix heterogeneity it trades robustness for
	// coverage and tends to stall (see docs/ROBUST.md).
	rows := []ByzantineRow{
		{Label: "mean (attack-free)", Agg: "", Adversary: ""},
		{Label: "mean (FedAvg)", Agg: "", Adversary: attack},
		{Label: "trimmed mean", Agg: "trim:frac=0.45", Adversary: attack},
		{Label: "multi-Krum", Agg: "krum:frac=0.4,m=2", Adversary: attack},
		{Label: "clip+trim", Agg: "clip:tau=8+trim:frac=0.45", Adversary: attack},
	}
	for i := range rows {
		if err := runByzantineRow(cell, sc, &rows[i]); err != nil {
			return nil, fmt.Errorf("byzantine row %q: %w", rows[i].Label, err)
		}
	}
	return rows, nil
}

// runByzantineRow executes one row's configuration and fills in its
// outcome fields.
func runByzantineRow(cell Cell, sc Scale, row *ByzantineRow) error {
	s := sc
	s.Agg, s.Adversary = row.Agg, row.Adversary
	fed, err := BuildFederation(cell.Arch, cell.Dataset, cell.Dist, DefaultProportions, s)
	if err != nil {
		return err
	}
	r, err := NewRunner("AdaptiveFL", fed, s)
	if err != nil {
		return err
	}
	curve, err := RunCurve(r, fed, s)
	if err != nil {
		return err
	}
	// Final accuracy, not best-over-training: a poisoned run often peaks
	// early before the attack lands, so BestOf would mask the collapse.
	if n := len(curve.Points); n > 0 {
		row.Full = curve.Points[n-1].Acc["full"]
	}
	if a, ok := baselines.AdaptiveOf(r); ok {
		row.Hash = nn.HashState(a.Srv.Global())
		for _, st := range a.Srv.Stats() {
			row.Rejected += st.Rejected
			row.Clipped += st.Clipped
		}
	}
	return nil
}

// TableByzantine prints the Byzantine-resilience table on Table 2's lead
// cell (CIFAR-10-like data, ResNet18 — the Widar test-bed cell sits at
// chance at reduced scales, leaving an attack nothing to destroy): robust
// policies should hold near the attack-free baseline where the plain
// weighted mean collapses. The weights hash makes each row's
// bit-determinism checkable by re-running the table at the same seed.
func TableByzantine(w io.Writer, sc Scale) error {
	cell := Cell{"cifar10", models.ResNet18, IID}
	rows, err := ByzantineRows(cell, sc)
	if err != nil {
		return err
	}
	attack := sc.Adversary
	if attack == "" {
		attack = DefaultByzantineAttack
	}
	fmt.Fprintf(w, "Table B — Byzantine resilience (%s/%s/%s, scale=%s)\n",
		cell.Dataset, cell.Arch, cell.Dist, sc.Name)
	fmt.Fprintf(w, "attack: %s\n", attack)
	fmt.Fprintln(w, "aggregation         best-full(%)  Δbaseline  rejected  clipped  weights-hash")
	base := rows[0].Full
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s  %12.2f  %+9.2f  %8d  %7d  %016x\n",
			r.Label, r.Full*100, (r.Full-base)*100, r.Rejected, r.Clipped, r.Hash)
	}
	return nil
}

// staticRoundTime approximates a baseline's synchronous round time: the
// slowest device class trains its statically assigned model every round
// (with K=10 of 17 devices, every class is almost always selected).
// ScaleFL's levels also truncate depth, to 1, 2 or 3 of its exits;
// approximate that with the width-scaled backbone scaled by the level's
// depth fraction.
func staticRoundTime(sim *testbed.Sim, fed *Federation, r *baselines.Static, sc Scale) float64 {
	depth := [...]float64{1, 0.33, 0.67, 1.0} // by exits kept; 0 = no exits
	worst := 0.0
	for _, class := range []core.DeviceClass{core.Weak, core.Medium, core.Strong} {
		widths, exits := r.Level(class)
		st := models.CountStats(fed.Model, widths)
		params, macs := int64(float64(st.Params)*depth[exits]), int64(float64(st.MACs)*depth[exits])
		t := sim.TransferTime(class, params, params) + sim.TrainTime(class, macs, sc.SamplesPerClient, sc.LocalEpochs)
		if t > worst {
			worst = t
		}
	}
	return worst
}
