package core

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"adaptivefl/internal/models"
	"adaptivefl/internal/nn"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/tensor"
)

// Executor bounds concurrent local-training executions. Every flight the
// event-driven scheduler (internal/sched) launches runs through its
// server's Executor (the edges of a two-tier hierarchy share one), so a
// whole process shares the same notion of training parallelism — and,
// through the arena pool below, the same recycled training state. An
// Executor is cheap (a semaphore): the expensive reusable state lives in
// the process-wide arena pool, not in the executor itself.
type Executor struct {
	sem      chan struct{}
	executed atomic.Int64
	skipped  atomic.Int64
	obs      *obs.Observer
}

// NewExecutor builds an executor bounding concurrent executions to
// parallelism; <= 0 means GOMAXPROCS.
func NewExecutor(parallelism int) *Executor {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Executor{sem: make(chan struct{}, parallelism)}
}

// Width returns the executor's concurrency bound.
func (x *Executor) Width() int { return cap(x.sem) }

// SetObserver attaches an observer whose queue-depth gauges (fl_exec_queued,
// fl_exec_running) track this executor's occupancy. Gauges only — queue
// residence is wall-clock state and never enters the span stream.
func (x *Executor) SetObserver(o *obs.Observer) { x.obs = o }

// Stats reports how many enqueued executions actually trained and how
// many were cancelled before a worker picked them up (a deadline round
// closing on stragglers whose uploads would be discarded anyway). The
// split between the two is timing-dependent; their sum is not.
func (x *Executor) Stats() (executed, skipped int64) {
	return x.executed.Load(), x.skipped.Load()
}

// run executes task on its own goroutine, bounded by the semaphore.
func (x *Executor) run(task func()) {
	x.obs.ExecDepth(1, 0)
	go func() {
		x.sem <- struct{}{}
		x.obs.ExecDepth(-1, 1)
		defer func() {
			<-x.sem
			x.obs.ExecDepth(0, -1)
		}()
		task()
	}()
}

// Training arenas.
//
// Every local training used to build a fresh model (parameter, gradient
// and momentum tensors, layer caches) and drop it after one dispatch,
// even though a round trains the same handful of pool members over and
// over. An arena keeps those structures alive between the dispatches a
// worker executes, keyed by (model config, width vector): renting an
// arena, training through it, and returning it leaves the weights fully
// overwritten by LoadState, the gradients zeroed by the per-batch
// ZeroGrads, and the momentum zeroed by SGD.Reset — so reuse is
// bit-identical to building from scratch (pinned by TestArenaReuseExact).
//
// What a training step creates and drops — layer outputs, gradients,
// im2col blocks, masks — is not per model at all: the arena owns one
// tensor.Workspace, binds every model it builds to it, and TrainLocal
// resets it once per batch. An arena's resident step memory is therefore
// one slab sized to the largest (model, batch) it has trained, however
// many of its cached models were used.
//
// Arenas follow rent/return semantics: at most one goroutine owns an
// arena (and so its workspace) at a time, and steady-state concurrency N
// keeps N arenas alive, up to GOMAXPROCS of them idle (tensor.FreeList).

// arenaKey identifies one model construction.
type arenaKey struct {
	cfg    models.Config
	widths string
}

// arenaEntry is one cached model with its recycled optimizer.
type arenaEntry struct {
	model  *models.Model
	params []*nn.Param
	opt    *nn.SGD
}

// arenaMaxEntries bounds how many distinct model constructions one arena
// retains (a p=3 pool has nine members; full-width paper models are tens
// of MB each, so the cap keeps a worker's footprint bounded even when a
// run cycles through many width vectors).
const arenaMaxEntries = 12

// trainArena caches built models and optimizer state across the local
// trainings one worker executes, and owns the one step workspace all of
// them draw their per-batch tensors from.
type trainArena struct {
	entries map[arenaKey]*arenaEntry
	ws      *tensor.Workspace
}

func widthsSig(widths []int) string {
	if widths == nil {
		return "full"
	}
	return fmt.Sprint(widths)
}

// modelFor returns a model (and optimizer) for the given construction,
// recycled when the arena has seen it before. The caller must load state
// before training; the optimizer comes hyperparameter-set and with zeroed
// momentum.
func (a *trainArena) modelFor(cfg models.Config, widths []int, tc TrainConfig) (*models.Model, []*nn.Param, *nn.SGD, error) {
	key := arenaKey{cfg: cfg, widths: widthsSig(widths)}
	if e, ok := a.entries[key]; ok {
		e.opt.LR, e.opt.Momentum, e.opt.WeightDecay = tc.LR, tc.Momentum, tc.WeightDecay
		e.opt.Reset()
		return e.model, e.params, e.opt, nil
	}
	m, err := models.Build(cfg, widths)
	if err != nil {
		return nil, nil, nil, err
	}
	m.SetWorkspace(a.ws)
	if len(a.entries) >= arenaMaxEntries {
		for k := range a.entries {
			delete(a.entries, k)
			break
		}
	}
	e := &arenaEntry{model: m, params: m.Params(), opt: nn.NewSGD(tc.LR, tc.Momentum, tc.WeightDecay)}
	a.entries[key] = e
	return e.model, e.params, e.opt, nil
}

// arenas recycles training arenas process-wide.
var arenas = tensor.FreeList[*trainArena]{New: newTrainArena}

func newTrainArena() *trainArena {
	return &trainArena{entries: map[arenaKey]*arenaEntry{}, ws: &tensor.Workspace{}}
}

func rentArena() *trainArena    { return arenas.Get() }
func returnArena(a *trainArena) { arenas.Put(a) }
