package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"adaptivefl/internal/agg"
	"adaptivefl/internal/baselines"
	"adaptivefl/internal/core"
	"adaptivefl/internal/exp"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/obs/analyze"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/rl"
	"adaptivefl/internal/wire"
)

// runTrace is the traced child: spans kept in memory around every call
// into a layer, the layer probes afterwards, the trace file at the end.
func runTrace(w *workload, seed int64, seconds float64, outDir string) (*childResult, error) {
	res := &childResult{Workload: w.name, Mode: "trace", Seed: seed, Metrics: metrics{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = 0
	}
	tr := newTracer()
	var err error
	switch {
	case w.popSpec != "":
		err = tracePop(w, res, tr, seed, window(w.traceCommits, seconds))
	case w.handRun:
		err = traceHand(w, res, tr, seed, window(w.traceCommits, seconds))
	default:
		err = traceFednet(w, res, tr, seed, window(w.traceCommits, seconds))
	}
	if err != nil {
		return nil, err
	}
	res.Metrics["obs.spans"] = float64(len(tr.spans))
	printLayerShares(w.name, tr.spans)
	return res, tr.write(outDir, w.name)
}

// audit is output check (2): the engine spans replay clean against the
// run's ledger through the fltrace auditor.
func audit(res *childResult, spans []stamped, ledger analyze.LedgerSummary) {
	a := analyze.NewAuditor(&ledger)
	for _, sp := range spans {
		a.Add(sp.Span)
	}
	v := a.Finish()
	res.Failed += max(len(v)-1, 0) // check() counts the first
	res.check("audit", len(v) == 0, "%d spans against the %s ledger: %d violations %v", len(spans), ledger.Policy, len(v), v[:min(len(v), 3)])
}

// procLayer folds the traced window's process counters into proc.*.
func procLayer(m metrics, a, b procSnap, commits int, times []float64) {
	wall := b.wall.Sub(a.wall).Seconds()
	cpu := b.cpu - a.cpu
	m["run_s"] = wall // the parent turns it into obs.trace_overhead_share
	m["proc.core_util"] = cpu / (wall * parallelism)
	m["proc.gc_cycles"] = float64(b.gc-a.gc) / float64(commits)
	m["proc.gc_pause_s"] = (b.gcPause - a.gcPause) / float64(commits)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.heap_peak_mib"] = float64(ms.HeapSys) / mib
	m["proc.commit_s_p75"] = quantile(times, 0.75)
	// Without phase spans the serial share is read off the CPU account:
	// with s of the wall on one core and the rest on both, cpu = wall·(2−s).
	m["proc.serial_share"] = min(max(parallelism-cpu/wall, 0), 1)
}

// ledgerLayer folds the window's ledger into the count metrics shared by
// every workload.
func ledgerLayer(m metrics, l ledger, commits int) {
	n := float64(commits)
	m["core.flights"] = float64(l.flights) / n
	m["core.flights_failed"] = float64(l.failed) / n
	m["core.flights_merged"] = float64(l.merged+l.lateReused) / n
	m["core.train_skipped"] = float64(l.skipped) / n
	if l.flights > 0 {
		m["core.useful_ratio"] = float64(l.merged+l.lateReused) / float64(l.flights)
	}
	m["core.comm_waste_rate"] = l.wasteRate()
	m["agg.updates"] = float64(l.merged+l.lateReused) / n
	m["sched.flights_late"] = float64(l.late) / n
	m["sched.flights_dropped"] = float64(l.dropped) / n
	m["sched.late_reused"] = float64(l.lateReused) / n
	m["wire.down_mib"] = float64(l.sentBytes) / mib / n
	m["wire.up_mib"] = float64(l.backBytes) / mib / n
	m["wire.compression_ratio"] = 1
	if p := l.sentParams + l.backParams; p > 0 && l.sentBytes+l.backBytes > 0 {
		m["wire.compression_ratio"] = float64(l.sentBytes+l.backBytes) / float64(8*p)
	}
}

// meanStaleness averages the merged flights' staleness over engine spans.
func meanStaleness(spans []stamped) float64 {
	n, total := 0, 0
	for _, sp := range spans {
		if sp.Kind == obs.KindFlight && (sp.Outcome == obs.OutcomeMerged || sp.Outcome == obs.OutcomeLateReused || sp.Outcome == obs.OutcomeClipped) {
			n++
			total += sp.Staleness
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// storeDelta folds an artifact store's counters since (enc0, hit0).
func storeDelta(m metrics, st *wire.ArtifactStore, enc0, hit0 int64, commits int) {
	enc, hits := float64(st.Encodes()-enc0), float64(st.Hits()-hit0)
	m["wire.store_encodes"] = enc / float64(commits)
	m["wire.store_hits"] = hits / float64(commits)
	if enc+hits > 0 {
		m["wire.store_hit_ratio"] = hits / (enc + hits)
	}
}

// printLayerShares logs each layer's share of the traced commits' wall
// clock by self time — the "where does a commit go" answer. Spans outside
// a commit (eval) are left out.
func printLayerShares(name string, spans []span) {
	self := selfTimes(spans)
	byLayer := map[string]float64{}
	total := 0.0
	for i, s := range spans {
		if s.Commit > 0 && s.End > s.Start && s.Name != "eval.accuracy" {
			byLayer[s.Layer] += self[i]
			total += self[i]
		}
	}
	layers := sortedKeys(byLayer)
	sort.SliceStable(layers, func(a, b int) bool { return byLayer[layers[a]] > byLayer[layers[b]] })
	fmt.Fprintf(os.Stderr, "bench: %s traced commit self time by layer:", name)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, " %s %.1f%%", l, 100*byLayer[l]/total)
	}
	fmt.Fprintln(os.Stderr)
}

// handRun drives commits through core.Server's exported staged API — the
// same computation as Runner.Round() (output check (1) proves it), with a
// span around every stage.
type handRun struct {
	srv   *core.Server
	tr    *tracer
	k     int
	spans []stamped // the engine spans Server.Round would emit, for the audit
}

func (h *handRun) commit() error {
	srv, tr := h.srv, h.tr
	root := tr.begin("commit", "bench", 0)
	defer tr.end(root)
	round := srv.NextRound()

	s := tr.begin("core.select", "core", 0)
	slots := srv.PlanSlots(h.k, nil)
	tr.end(s)

	s = tr.begin("prune.round_trainer", "prune", 0)
	trainer, err := srv.RoundTrainer(slots)
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.begin("core.plan", "core", 0)
	flights := make([]*core.Flight, len(slots))
	for i, sl := range slots {
		flights[i] = srv.OpenFlight(sl)
		if _, err := srv.Plan(trainer, flights[i]); err != nil {
			tr.end(s)
			return err
		}
	}
	tr.end(s)

	// Execute on bench-owned workers, so every flight's enqueue, start and
	// end are seen. At most `parallelism` trainings are in flight.
	phase := tr.begin("core.execute", "core", 0)
	queued := time.Now()
	jobs := make(chan *core.Flight, len(flights))
	for _, f := range flights {
		jobs <- f
	}
	close(jobs)
	var wg sync.WaitGroup
	for i := 0; i < parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.adopt(phase)
			for f := range jobs {
				fs := tr.begin("core.execute_flight", "core", f.ID)
				tr.setQueued(fs, queued)
				srv.Execute(trainer, f)
				tr.end(fs)
			}
		}()
	}
	wg.Wait()
	tr.end(phase)

	s = tr.begin("core.record", "core", 0)
	stats := core.RoundStats{Round: round}
	var updates []agg.Update
	dispatches := make([]core.Dispatch, 0, len(flights))
	for _, f := range flights {
		srv.Release(f)
		if err == nil {
			err = f.Err()
		}
		if err != nil {
			continue
		}
		d, u := srv.Record(f, core.Merged)
		stats.Add(d)
		dispatches = append(dispatches, d)
		if u != nil {
			updates = append(updates, *u)
		}
	}
	tr.end(s)
	if err != nil {
		return err
	}

	// The spans Server.Round emits — flights before the aggregation moves
	// the version, the commit after — built outside the timed stages.
	s = tr.begin("obs.emit", "obs", 0)
	commit := obs.Span{Kind: obs.KindCommit, Client: -1, Round: round, Merged: len(updates)}
	for i, d := range dispatches {
		sp := stamped{srv.FlightSpan(flights[i], d, core.Merged), time.Now()}
		h.spans = append(h.spans, sp)
		tr.event("core.flight", "core", sp.at, sp.Flight, sp.Outcome)
		switch {
		case d.Failed || d.Dropped:
			commit.Failed++
		case d.Rejected:
			commit.Rejected++
		case d.Clipped:
			commit.Clipped++
		}
	}
	h.spans = append(h.spans, stamped{commit, time.Now()})
	tr.end(s)

	s = tr.begin("agg.apply", "agg", 0)
	err = srv.ApplyUpdates(updates)
	tr.end(s)
	if err != nil {
		return err
	}
	srv.PushStats(stats)
	return nil
}

// traceHand is the traced child of the in-process workloads.
func traceHand(w *workload, res *childResult, tr *tracer, seed int64, commits int) error {
	sc := w.scale(seed)
	fed, err := w.buildFederation(sc)
	if err != nil {
		return err
	}
	var codec wire.Codec
	if sc.Codec != "" {
		c, err := wire.ByTag(sc.Codec)
		if err != nil {
			return err
		}
		codec = wire.Timed(c, tr)
	}
	_, adv, err := sc.SplitAdversary()
	if err != nil {
		return err
	}
	// The server exp.NewRunner("AdaptiveFL") builds, codec timed.
	srv, err := core.NewServer(core.Config{
		Model: fed.Model, Pool: prune.Config{P: 3}, RL: rl.Config{}, Mode: rl.ModeCS,
		ClientsPerRound: sc.K, Train: sc.TrainConfig(), Seed: sc.Seed + 101,
		Parallelism: sc.Parallelism, Codec: codec, Agg: sc.Agg, Adversary: adv,
	}, fed.Clients)
	if err != nil {
		return err
	}
	c := &cell{sc: sc, fed: fed, srv: srv, runner: &baselines.Adaptive{Srv: srv, Label: "AdaptiveFL"}}
	h := &handRun{srv: srv, tr: tr, k: sc.K}
	if err := h.commit(); err != nil {
		return fmt.Errorf("warm-up commit: %w", err)
	}
	var enc0, hit0 int64
	if st := srv.Artifacts(); st != nil {
		enc0, hit0 = st.Encodes(), st.Hits()
	}

	var ev evalRecorder
	times := make([]float64, 0, commits)
	before := snap()
	for i := 1; i <= commits; i++ {
		tr.commit = i
		t := time.Now()
		if err := h.commit(); err != nil {
			return fmt.Errorf("commit %d: %w", i, err)
		}
		times = append(times, time.Since(t).Seconds())
		if w.evalEvery > 0 && i%w.evalEvery == 0 {
			s := tr.begin("eval.accuracy", "eval", 0)
			err := ev.eval(c, i)
			tr.end(s)
			if err != nil {
				return err
			}
		}
	}
	after := snap()

	m := res.Metrics
	res.Commits, res.Samples = commits, len(times)
	res.Hash, res.AccFinal = hashHex(nn.HashState(srv.Global())), ev.last
	procLayer(m, before, after, commits, times)
	l := foldLedger(srv.Stats()[1:], c.samplesOf, sc.LocalEpochs)
	res.Attempted = l.flights
	ledgerLayer(m, l, commits)
	if st := srv.Artifacts(); st != nil {
		storeDelta(m, st, enc0, hit0, commits)
	}
	handSpans(m, tr.spans, commits)
	m["rl.rows"] = float64(srv.Tables().Rows())
	m["sched.global_commits"] = float64(commits)
	evalLayer(m, ev, fed.Test.Len())

	summary := analyze.SummarizeStats(srv.Stats())
	summary.Policy = "legacy"
	audit(res, h.spans, summary)

	in, err := c.probeInput(l, nil)
	if err != nil {
		return err
	}
	extractCall, err := runProbes(in, m)
	if err != nil {
		return err
	}
	if codec == nil {
		// No codec: every executed flight extracts its own dispatch state
		// inside Execute, out of the spans' sight — price it from the probe.
		n := float64(l.flights-l.failed) / float64(commits)
		m["prune.extracts"], m["prune.extract_s"] = n, n*extractCall
	}
	return nil
}

// probeInput is what the probes replay for an eager-population cell: its
// model, pool and final weights, one client's shard, the window's ledger.
// codec is set only where the codec ran out of the spans' sight.
func (c *cell) probeInput(l ledger, codec wire.Codec) (probeInput, error) {
	dcfg, err := exp.DatasetConfig("cifar10", c.sc)
	if err != nil {
		return probeInput{}, err
	}
	return probeInput{
		mcfg: c.fed.Model, pool: c.srv.Pool(), global: c.srv.Global(), shard: c.fed.Clients[0].Data,
		train: c.sc.TrainConfig(), l: l, clients: c.sc.Clients, k: c.sc.K, codec: codec, dataCfg: dcfg,
		shardSamples: c.sc.SamplesPerClient, shardClasses: max(dcfg.Classes/3, 2),
	}, nil
}

// evalLayer folds the window's evaluations (full model + three heads per
// call) into eval.*.
func evalLayer(m metrics, ev evalRecorder, testSamples int) {
	m["eval.calls"] = float64(ev.calls)
	m["eval.acc_avg_best"] = ev.best
	m["eval.rounds_to_target"] = float64(ev.toTarget)
	if ev.calls > 0 {
		m["eval.accuracy_s"] = ev.seconds / float64(ev.calls)
		m["eval.samples_per_s"] = float64(4*testSamples*ev.calls) / ev.seconds
	}
}

// handSpans folds the hand-run's bench spans into the per-commit phase
// metrics of core, prune, wire and agg, and the span-coverage ratios.
func handSpans(m metrics, spans []span, commits int) {
	self := selfTimes(spans)
	n := float64(commits)
	var commitWall, unspanned, executeWall float64
	var encBytes, decBytes int
	var encS float64
	for i, s := range spans {
		if s.Commit == 0 {
			continue
		}
		switch s.Name {
		case "commit":
			commitWall += s.dur()
			unspanned += self[i]
		case "core.select":
			m["core.select_s"] += self[i] / n
		case "core.plan":
			m["core.plan_s"] += self[i] / n
		case "core.record":
			m["core.record_s"] += self[i] / n
		case "core.execute":
			executeWall += s.dur()
		case "core.execute_flight":
			m["core.execute_busy_s"] += s.dur() / n
			m["core.execute_wait_s"] += (s.Start - s.Queued) / n
			m["core.train_self_s"] += self[i] / n
		case "prune.round_trainer":
			// With a codec the round trainer extracts each distinct member
			// once; its self time (span − codec children) is the extraction.
			m["prune.extract_s"] += self[i] / n
		case "agg.apply":
			m["agg.apply_s"] += s.dur() / n
		case "wire.encode":
			m["wire.encodes"] += 1 / n
			encBytes += s.Bytes
			encS += s.dur()
			if under(spans, s, "core.execute") {
				m["wire.encode_up_s"] += s.dur() / n
			} else {
				m["wire.encode_down_s"] += s.dur() / n
			}
		case "wire.decode":
			m["wire.decodes"] += 1 / n
			decBytes += s.Bytes
			m["wire.decode_s"] += s.dur() / n
		}
	}
	m["prune.extracts"] = m["wire.store_encodes"]
	if encS > 0 {
		m["wire.encode_mib_per_s"] = float64(encBytes) / mib / encS
	}
	if d := m["wire.decode_s"] * n; d > 0 {
		m["wire.decode_mib_per_s"] = float64(decBytes) / mib / d
	}
	m["proc.unspanned_share"] = unspanned / commitWall
	// Everything but the execute phase runs on one goroutine.
	m["proc.serial_share"] = (commitWall - executeWall) / commitWall
}

// traceFednet is the traced child of fednet_fanout, whose commits cannot
// be hand-run (the transport owns the dispatch): one span per
// Runner.Round() plus the public hooks — a stamping span sink and the
// cluster's wall-clock log.
func traceFednet(w *workload, res *childResult, tr *tracer, seed int64, commits int) error {
	sc := w.scale(seed)
	sink := &stampSink{hook: func(st stamped) {
		// Engine spans arrive on the goroutine that called Round(), so each
		// lands under the open sched.step span.
		tr.event("sched."+st.Kind, "sched", st.at, st.Flight, st.Outcome)
	}}
	sc.Observer = obs.NewObserver(nil, sink)
	c, err := w.build(sc)
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.runner.Round(); err != nil {
		return fmt.Errorf("warm-up commit: %w", err)
	}
	// The warm-up has returned and fednet joins every dispatch at launch,
	// so no request is in flight while the wall log is attached.
	var wallBuf bytes.Buffer
	wall := obs.NewJSONLWriter(&wallBuf)
	c.cluster.SetWallLog(wall)
	store := c.cluster.Trainer.Artifacts()
	enc0, hit0 := store.Encodes(), store.Hits()
	warmStats, warmSpans, log0 := len(c.srv.Stats()), len(sink.spans), len(c.eng.Log())

	times := make([]float64, 0, commits)
	before := snap()
	for i := 1; i <= commits; i++ {
		tr.commit = i
		s := tr.begin("sched.step", "sched", 0)
		err := c.runner.Round()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("commit %d: %w", i, err)
		}
		times = append(times, tr.spans[s-1].dur())
	}
	after := snap()
	if err := wall.Close(); err != nil {
		return err
	}

	m := res.Metrics
	res.Commits, res.Samples, res.Hash = commits, len(times), hashHex(nn.HashState(c.srv.Global()))
	procLayer(m, before, after, commits, times)
	l := foldLedger(c.srv.Stats()[warmStats:], c.samplesOf, sc.LocalEpochs)
	res.Attempted = l.flights
	ledgerLayer(m, l, commits)
	storeDelta(m, store, enc0, hit0, commits)
	n := float64(commits)
	m["sched.step_s"] = sum(times) / n
	m["sched.events"] = float64(len(c.eng.Log())-log0) / n
	m["sched.mean_staleness"] = meanStaleness(sink.spans[warmSpans:])
	m["sched.global_commits"] = n
	m["rl.rows"] = float64(c.srv.Tables().Rows())
	// The codec runs inside the trainer and the agents: counts follow from
	// the ledger (one downlink encode per store miss, one upload per flight
	// that returned; every full-body dispatch and every upload is decoded).
	uploads := float64(l.flights - l.failed - l.dropped)
	m["wire.encodes"] = m["wire.store_encodes"] + uploads/n
	m["wire.decodes"] = (float64(l.flights-l.notModified) + uploads) / n
	// The trainer extracts every dispatch's state before it consults its
	// artifact store.
	m["prune.extracts"] = float64(l.flights) / n
	if err := wallLayer(m, &wallBuf, l, commits); err != nil {
		return err
	}

	summary := analyze.SummarizeStats(c.srv.Stats())
	summary.Policy = sc.Sched
	summary.HasDiscounts = true
	summary.StalenessExp, summary.DiscountSum = c.eng.StalenessExp(), c.eng.DiscountSum()
	audit(res, sink.spans, summary)

	codec, err := wire.ByTag(sc.Codec)
	if err != nil {
		return err
	}
	in, err := c.probeInput(l, codec)
	if err != nil {
		return err
	}
	extractCall, err := runProbes(in, m)
	if err != nil {
		return err
	}
	m["prune.extract_s"] = m["prune.extracts"] * extractCall
	return codecProbe(in, m)
}

// wallLayer joins the cluster's wall records by flight ID into fednet.*:
// per flight, the server-side round trip, the agent-side handling and
// their difference (HTTP, envelope, server-side codec).
func wallLayer(m metrics, buf *bytes.Buffer, l ledger, commits int) error {
	type pair struct{ rtt, agent float64 }
	flights := map[int64]*pair{}
	at := func(id int64) *pair {
		if flights[id] == nil {
			flights[id] = &pair{}
		}
		return flights[id]
	}
	var dispatches, resends, httpErrors int
	var down, up int64
	err := analyze.ForEachWall(buf, func(r obs.WallRecord) error {
		if r.Route != "train" {
			return nil
		}
		if r.Side == "agent" {
			at(r.Flight).agent += r.Seconds
			up += r.RespBytes
			return nil
		}
		dispatches++
		down += r.ReqBytes
		at(r.Flight).rtt += r.Seconds
		switch {
		case r.Status == 412:
			resends++
		case r.Status >= 400:
			httpErrors++
		}
		return nil
	})
	if err != nil {
		return err
	}
	var rtt, agent, overhead []float64
	for _, p := range flights {
		rtt = append(rtt, p.rtt)
		agent = append(agent, p.agent)
		overhead = append(overhead, max(p.rtt-p.agent, 0))
	}
	n := float64(commits)
	m["fednet.rtt_s_p50"] = quantile(rtt, 0.5)
	m["fednet.agent_s_p50"] = quantile(agent, 0.5)
	m["fednet.overhead_s_p50"] = quantile(overhead, 0.5)
	m["fednet.dispatches"] = float64(dispatches) / n
	m["fednet.resend_412"] = float64(resends)
	m["fednet.http_errors"] = float64(httpErrors)
	m["fednet.down_mib"] = float64(down) / mib / n
	m["fednet.up_mib"] = float64(up) / mib / n
	if l.flights > 0 {
		m["fednet.not_modified_share"] = float64(l.notModified) / float64(l.flights)
	}
	return nil
}

// tracePop is popsim_1m's traced child: the same RunPopSim call as the
// e2e child (the sink is attached in both), read layer by layer.
func tracePop(w *workload, res *childResult, tr *tracer, seed int64, nominal int) error {
	e2e, run, err := runPopE2E(w, seed, nominal, false)
	if err != nil {
		return err
	}
	res.Commits, res.Samples, res.Hash, res.Attempted = e2e.Commits, e2e.Samples, e2e.Hash, e2e.Attempted
	commits := e2e.Commits
	// The tracer's clock starts at the first global merge; every engine span
	// becomes an event, every global merge closes a commit span.
	tr.t0 = run.merges[0].at
	for i := 1; i < len(run.merges); i++ {
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Name: "sched.global_commit", Layer: "sched",
			Start: tr.since(run.merges[i-1].at), End: tr.since(run.merges[i].at), Commit: i})
	}
	commit := 1
	var made, evicted, edgeCommits int
	for _, st := range run.window {
		at := tr.since(st.at)
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Name: "sched." + st.Kind, Layer: "sched",
			Start: at, End: at, Parent: min(commit, commits), Commit: min(commit, commits),
			Flight: st.Flight, Outcome: st.Outcome + st.Op})
		switch {
		case st.Kind == obs.KindGlobalMerge:
			commit++
		case st.Kind == obs.KindCommit:
			edgeCommits++
		case st.Kind == obs.KindLRU && st.Op == obs.OpMaterialise:
			made++
		case st.Kind == obs.KindLRU && st.Op == obs.OpEvict:
			evicted++
		}
	}

	m := res.Metrics
	times := run.commitTimes()
	procLayer(m, run.before, run.after, commits, times)
	m["run_s"] = e2e.Metrics["run_s"] // normalised like the untraced twin's
	l := run.ledger()
	ledgerLayer(m, l, commits)
	n := float64(commits)
	m["sched.step_s"] = sum(times) / n
	m["sched.events"] = float64(len(run.window)) / n
	m["sched.mean_staleness"] = meanStaleness(run.window)
	m["sched.global_commits"] = n
	m["sched.edge_commits"] = float64(edgeCommits)
	m["rl.rows"] = float64(run.res.RLRows)
	m["core.lazy_live"] = float64(run.res.Live)
	m["core.lazy_made"] = float64(run.res.TotalMade)
	m["core.lazy_evictions"] = float64(evicted)
	if l.flights > 0 {
		m["core.lazy_hit_ratio"] = max(1-float64(made)/float64(l.flights), 0)
	}
	m["prune.extracts"] = float64(l.flights-l.failed-l.skipped) / n

	audit(res, run.spans, *run.res.Ledger)

	// The probes need a global state and a shard at the run's shapes;
	// RunPopSim returns neither, so rebuild them the way it does (a fresh
	// full model stands in for the final weights — probe cost depends on
	// shapes, not values).
	dcfg, err := exp.DatasetConfig(run.spec.Dataset, run.sc)
	if err != nil {
		return err
	}
	global, shard, classes, err := popShapes(run.mcfg, dcfg, run.spec)
	if err != nil {
		return err
	}
	spec := run.spec
	spec.Seed = run.sc.Seed + 977 // RunPopSim's derivation
	extractCall, err := runProbes(probeInput{
		mcfg: run.mcfg, pool: run.pool, global: global, shard: shard, train: run.sc.TrainConfig(), l: l,
		clients: spec.N, k: run.sc.K, dataCfg: dcfg, shardSamples: spec.Samples, shardClasses: classes,
		pop: &spec,
	}, m)
	if err != nil {
		return err
	}
	m["prune.extract_s"] = m["prune.extracts"] * extractCall
	return nil
}
